package ftl

import (
	"bytes"
	"errors"
	"testing"

	"ipa/internal/flashdev"
	"ipa/internal/nand"
)

func testDevice(t *testing.T, cell nand.CellType) *flashdev.Device {
	t.Helper()
	dev, err := flashdev.New(flashdev.Config{
		Chips: 1,
		Chip: nand.Config{
			Geometry: nand.Geometry{
				Blocks:        32,
				PagesPerBlock: 16,
				PageSize:      2048,
				OOBSize:       128,
			},
			Cell:            cell,
			StrictOverwrite: true,
			Seed:            5,
		},
		Latency: flashdev.DefaultLatencyModel(),
	})
	if err != nil {
		t.Fatalf("flashdev.New: %v", err)
	}
	return dev
}

func testFTL(t *testing.T, cfg Config) *FTL {
	t.Helper()
	dev := testDevice(t, nand.MLC)
	f, err := New(dev, cfg)
	if err != nil {
		t.Fatalf("ftl.New: %v", err)
	}
	return f
}

func pageImage(size int, seed byte) []byte {
	img := make([]byte, size)
	for i := range img {
		img[i] = byte(i)*3 + seed
	}
	return img
}

// pageWithErasedTail returns a page image whose last tail bytes are erased
// (0xFF), mimicking a database page with an empty delta-record area.
func pageWithErasedTail(size, tail int, seed byte) []byte {
	img := pageImage(size, seed)
	for i := size - tail; i < size; i++ {
		img[i] = 0xFF
	}
	return img
}

// TestPeekIsNoDeviceOperation: a peek returns the image ReadPage returns
// but leaves the clock, the read counters of the FTL, the device and the
// chip, and the operation hook untouched; a page never written is unmapped.
func TestPeekIsNoDeviceOperation(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModeMLCFull})
	img := pageImage(f.PageSize(), 7)
	if _, err := f.WritePage(3, img); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	dev := f.Device()
	ops := 0
	dev.SetOpHook(func(int, nand.FaultOp) { ops++ })
	now, hostReads, devReads, chipReads := dev.Now(), f.Stats().HostReads, dev.Stats().FlashPageReads, dev.PerChipStats()[0].PageReads
	got := make([]byte, f.PageSize())
	if err := f.Peek(3, got); err != nil {
		t.Fatalf("Peek: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("Peek returned another image than the one written")
	}
	if err := f.Peek(4, got); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("Peek of an unwritten page: %v, want ErrUnmapped", err)
	}
	if dev.Now() != now || f.Stats().HostReads != hostReads || dev.Stats().FlashPageReads != devReads ||
		dev.PerChipStats()[0].PageReads != chipReads || ops != 0 {
		t.Fatalf("a peek moved the device: clock %v→%v, host reads %d→%d, device reads %d→%d, chip reads %d→%d, %d hooked operations",
			now, dev.Now(), hostReads, f.Stats().HostReads, devReads, dev.Stats().FlashPageReads, chipReads, dev.PerChipStats()[0].PageReads, ops)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModeMLCFull})
	img := pageImage(f.PageSize(), 1)
	if _, err := f.WritePage(3, img); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	got := make([]byte, f.PageSize())
	if err := f.ReadPage(3, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("round trip mismatch")
	}
	if !f.Mapped(3) || f.Mapped(4) {
		t.Fatalf("Mapped() wrong")
	}
	s := f.Stats()
	if s.HostWrites != 1 || s.HostReads != 1 || s.OutOfPlaceWrites != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestReadUnmapped(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModeMLCFull})
	if err := f.ReadPage(0, make([]byte, f.PageSize())); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("expected ErrUnmapped, got %v", err)
	}
	if err := f.ReadPage(f.Capacity()+1, make([]byte, f.PageSize())); !errors.Is(err, ErrBadLBA) {
		t.Fatalf("expected ErrBadLBA, got %v", err)
	}
}

func TestOutOfPlaceUpdateInvalidates(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModeMLCFull})
	img := pageImage(f.PageSize(), 2)
	if _, err := f.WritePage(0, img); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	img[0] ^= 0xFF
	if _, err := f.WritePage(0, img); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	s := f.Stats()
	if s.Invalidations != 1 || s.OutOfPlaceWrites != 2 {
		t.Fatalf("stats %+v", s)
	}
	got := make([]byte, f.PageSize())
	if err := f.ReadPage(0, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("latest version not returned")
	}
}

func TestWriteDeltaNative(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModePSLC, EccCoverBytes: 1024})
	img := pageWithErasedTail(f.PageSize(), 1024, 3)
	if _, err := f.WritePage(5, img); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	if !f.IsAppendTarget(5) {
		t.Fatalf("freshly written pSLC page must accept appends")
	}
	delta := []byte{0xDE, 0xAD}
	if err := f.WriteDelta(5, 1024, delta); err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	got := make([]byte, f.PageSize())
	if err := f.ReadPage(5, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if got[1024] != 0xDE || got[1025] != 0xAD {
		t.Fatalf("delta not appended")
	}
	if !bytes.Equal(got[:1024], img[:1024]) {
		t.Fatalf("original content disturbed")
	}
	s := f.Stats()
	if s.HostWriteDeltas != 1 || s.InPlaceAppends != 1 || s.Invalidations != 0 {
		t.Fatalf("stats %+v", s)
	}
	// The delta write must not change the physical mapping: no GC work.
	if s.GCErases != 0 || s.GCMigrations != 0 {
		t.Fatalf("append must not cause GC work")
	}
}

func TestWriteDeltaUnmappedAndBudget(t *testing.T) {
	// An OOB with room for two delta ECC slots, so the FTL's budget (one
	// append per slot) binds before the chip's NOP budget does.
	dev, err := flashdev.New(flashdev.Config{Chip: nand.Config{
		Geometry:        nand.Geometry{Blocks: 32, PagesPerBlock: 16, PageSize: 2048, OOBSize: 52},
		Cell:            nand.MLC,
		StrictOverwrite: true,
	}})
	if err != nil {
		t.Fatalf("flashdev.New: %v", err)
	}
	if slots := dev.Geometry().DeltaSlots; slots != 2 {
		t.Fatalf("test device has %d delta slots, want 2", slots)
	}
	f, err := New(dev, Config{FlashMode: nand.ModePSLC, EccCoverBytes: 1024})
	if err != nil {
		t.Fatalf("ftl.New: %v", err)
	}
	if err := f.WriteDelta(9, 0, []byte{1}); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("expected ErrUnmapped, got %v", err)
	}
	img := pageWithErasedTail(f.PageSize(), 1024, 4)
	if _, err := f.WritePage(9, img); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := f.WriteDelta(9, 1024+i, []byte{byte(i)}); err != nil {
			t.Fatalf("append %d: %v", i+1, err)
		}
	}
	if err := f.WriteDelta(9, 1026, []byte{2}); !errors.Is(err, ErrNotAppendable) {
		t.Fatalf("append budget not enforced: %v", err)
	}
	if n := dev.Stats().FlashDeltaPrograms; n != 2 {
		t.Fatalf("%d delta programs reached the device, want 2", n)
	}
}

func TestOddMLCAppendsOnlyOnLSBPages(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModeOddMLC, EccCoverBytes: 1024})
	// Write several pages; they land on consecutive physical pages, so some
	// are MSB (even index) and some LSB (odd index).
	appendable := 0
	total := 8
	for lba := 0; lba < total; lba++ {
		img := pageWithErasedTail(f.PageSize(), 1024, byte(lba))
		if _, err := f.WritePage(lba, img); err != nil {
			t.Fatalf("WritePage %d: %v", lba, err)
		}
		if f.IsAppendTarget(lba) {
			appendable++
			if err := f.WriteDelta(lba, 1024, []byte{byte(lba)}); err != nil {
				t.Fatalf("WriteDelta on LSB page: %v", err)
			}
		} else if err := f.WriteDelta(lba, 1024, []byte{byte(lba)}); !errors.Is(err, ErrNotAppendable) {
			t.Fatalf("append on MSB page must be refused, got %v", err)
		}
	}
	if appendable == 0 || appendable == total {
		t.Fatalf("odd-MLC should make some (not all) pages appendable: %d/%d", appendable, total)
	}
}

func TestInPlaceMergeSSDMode(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModePSLC, InPlaceMerge: true, EccCoverBytes: 1024})
	img := pageWithErasedTail(f.PageSize(), 1024, 7)
	if _, err := f.WritePage(2, img); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	// Add bytes only in the previously erased tail: in-place merge possible.
	img2 := append([]byte(nil), img...)
	img2[1024] = 0x11
	inPlace, err := f.WritePage(2, img2)
	if err != nil {
		t.Fatalf("merge write: %v", err)
	}
	if !inPlace {
		t.Fatalf("expected an in-place merge")
	}
	// Changing already programmed bytes forces an out-of-place write.
	img3 := append([]byte(nil), img2...)
	img3[0] ^= 0xFF
	inPlace, err = f.WritePage(2, img3)
	if err != nil {
		t.Fatalf("out-of-place write: %v", err)
	}
	if inPlace {
		t.Fatalf("incompatible image must not be merged in place")
	}
	s := f.Stats()
	if s.InPlaceAppends != 1 || s.OutOfPlaceWrites != 2 || s.Invalidations != 1 {
		t.Fatalf("stats %+v", s)
	}
	got := make([]byte, f.PageSize())
	if err := f.ReadPage(2, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, img3) {
		t.Fatalf("latest image not returned")
	}
}

// TestWriteImageIsWritePage: an image built into the partition's page is
// merged in place or written out of place as the same bytes handed to
// WritePage would be, and allocates nothing.
func TestWriteImageIsWritePage(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModePSLC, InPlaceMerge: true, EccCoverBytes: 1024})
	img := pageWithErasedTail(f.PageSize(), 1024, 7)
	if _, err := f.WritePage(2, img); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	build := func(want []byte) func([]byte) {
		return func(image []byte) { copy(image, want) }
	}
	img2 := bytes.Clone(img)
	img2[1024] = 0x11
	if inPlace, err := f.WriteImage(2, build(img2)); err != nil || !inPlace {
		t.Fatalf("append-only image: in place %v, err %v; want a merge", inPlace, err)
	}
	img3 := bytes.Clone(img2)
	img3[0] ^= 0xFF
	if inPlace, err := f.WriteImage(2, build(img3)); err != nil || inPlace {
		t.Fatalf("rewritten body: in place %v, err %v; want an out-of-place write", inPlace, err)
	}
	got := make([]byte, f.PageSize())
	if err := f.ReadPage(2, got); err != nil || !bytes.Equal(got, img3) {
		t.Fatalf("ReadPage after WriteImage: err %v, latest image %v", err, bytes.Equal(got, img3))
	}
	var err error
	n := testing.AllocsPerRun(20, func() {
		_, err = f.WriteImage(3, func(image []byte) { copy(image, img3) })
	})
	if n != 0 || err != nil {
		t.Fatalf("WriteImage: %v allocations per call (err %v), want 0", n, err)
	}
}

func TestGarbageCollectionReclaimsSpace(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModeMLCFull})
	// Use a small hot set and overwrite it many times: far more writes than
	// physical pages, so GC must reclaim invalidated space for the run to
	// finish.
	hot := 20
	writes := f.Capacity() * 3
	for i := 0; i < writes; i++ {
		lba := i % hot
		img := pageImage(f.PageSize(), byte(i))
		if _, err := f.WritePage(lba, img); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	s := f.Stats()
	if s.GCErases == 0 {
		t.Fatalf("garbage collection never ran: %+v", s)
	}
	// All hot pages must still hold their latest content.
	for lba := 0; lba < hot; lba++ {
		got := make([]byte, f.PageSize())
		if err := f.ReadPage(lba, got); err != nil {
			t.Fatalf("ReadPage %d: %v", lba, err)
		}
	}
	if f.FreeBlocks() == 0 {
		t.Fatalf("GC left no free blocks")
	}
}

func TestGCPreservesDataUnderMigration(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModeMLCFull})
	// A working set close to the exported capacity: GC victims then always
	// contain valid pages, so migrations must happen and must preserve the
	// latest version of every page.
	working := f.Capacity() * 7 / 10
	latest := make(map[int]byte, working)
	// Populate, then rewrite pages in a pseudo-random order: randomness
	// spreads invalid pages across blocks, so victims carry valid pages.
	for lba := 0; lba < working; lba++ {
		if _, err := f.WritePage(lba, pageImage(f.PageSize(), byte(lba))); err != nil {
			t.Fatalf("populate %d: %v", lba, err)
		}
		latest[lba] = byte(lba)
	}
	x := uint32(12345)
	for i := 0; i < working*4; i++ {
		x = x*1664525 + 1013904223
		lba := int(x>>8) % working
		seed := byte(i)
		if _, err := f.WritePage(lba, pageImage(f.PageSize(), seed)); err != nil {
			t.Fatalf("rewrite %d: %v", i, err)
		}
		latest[lba] = seed
	}
	if f.Stats().GCMigrations == 0 {
		t.Fatalf("expected GC migrations under high utilisation: %+v", f.Stats())
	}
	got := make([]byte, f.PageSize())
	for lba := 0; lba < working; lba++ {
		if err := f.ReadPage(lba, got); err != nil {
			t.Fatalf("ReadPage %d: %v", lba, err)
		}
		if !bytes.Equal(got, pageImage(f.PageSize(), latest[lba])) {
			t.Fatalf("page %d lost its latest version after GC", lba)
		}
	}
}

func TestPSLCHalvesCapacity(t *testing.T) {
	full := testFTL(t, Config{FlashMode: nand.ModeMLCFull})
	half := testFTL(t, Config{FlashMode: nand.ModePSLC})
	if half.Capacity() >= full.Capacity() {
		t.Fatalf("pSLC capacity (%d) must be below MLC capacity (%d)", half.Capacity(), full.Capacity())
	}
}

func TestWritePageValidation(t *testing.T) {
	f := testFTL(t, Config{FlashMode: nand.ModeMLCFull})
	if _, err := f.WritePage(0, make([]byte, 10)); err == nil {
		t.Fatalf("short buffer must be rejected")
	}
	if _, err := f.WritePage(-1, make([]byte, f.PageSize())); !errors.Is(err, ErrBadLBA) {
		t.Fatalf("negative LBA must be rejected")
	}
	if _, err := f.WritePage(f.Capacity(), make([]byte, f.PageSize())); !errors.Is(err, ErrBadLBA) {
		t.Fatalf("LBA beyond capacity must be rejected")
	}
}
