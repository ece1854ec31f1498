package flashdev

import (
	"bytes"
	"errors"
	"testing"

	"ipa/internal/nand"
)

// Split-cover geometry of the tests below: body, open delta area, footer.
const (
	splitCover = 1500
	splitTail  = 48
)

// splitImage is a page image with an erased delta area between the covered
// body and the covered footer.
func splitImage(seed byte) []byte {
	img := pattern(2048, seed)
	for i := splitCover; i < len(img)-splitTail; i++ {
		img[i] = 0xFF
	}
	return img
}

// clearBit programs one more 0 into a programmed page behind the device's
// back — what a disturbed cell looks like. The bit must currently be 1.
func clearBit(t *testing.T, d *Device, block, page int, img []byte, pos int) {
	t.Helper()
	mask := byte(1) << uint(pos%8)
	if img[pos/8]&mask == 0 {
		t.Fatalf("bit %d is already 0", pos)
	}
	if err := d.chips[0].ProgramPartial(block, page, pos/8, []byte{img[pos/8] &^ mask}, 0, nil); err != nil {
		t.Fatalf("clear bit %d: %v", pos, err)
	}
}

// setBitPos returns the position of the first 1 bit at or after byte off.
func setBitPos(img []byte, off int) int {
	for i := off; ; i++ {
		for b := 0; b < 8; b++ {
			if img[i]&(1<<uint(b)) != 0 {
				return i*8 + b
			}
		}
	}
}

// TestSplitCoverCorrectsInPlace: the initial ECC covers body‖footer where
// they lie in the page image; a flipped bit in either part is corrected in
// the caller's buffer by reads and by recovery scans, and one flip in each
// is reported, not repaired.
func TestSplitCoverCorrectsInPlace(t *testing.T) {
	d := mustDevice(t, testConfig())
	img := splitImage(5)
	inBody, inFooter := setBitPos(img, 700), setBitPos(img, 2048-splitTail+9)
	buf := make([]byte, 2048)

	for page, pos := range map[int]int{1: inBody, 3: inFooter} {
		if err := d.ProgramPageTagged(0, page, img, splitCover, splitTail, 7, 1); err != nil {
			t.Fatalf("program: %v", err)
		}
		clearBit(t, d, 0, page, img, pos)
		before := d.Stats().CorrectedBits
		if err := d.ReadPage(0, page, buf); err != nil {
			t.Fatalf("read with bit %d flipped: %v", pos, err)
		}
		if !bytes.Equal(buf, img) {
			t.Fatalf("read did not repair bit %d in the caller's buffer", pos)
		}
		scan, err := d.ScanPage(0, page, buf)
		if err != nil || !scan.BodyValid || scan.Torn || !scan.Tagged {
			t.Fatalf("scan with bit %d flipped: %+v, err %v", pos, scan, err)
		}
		if !bytes.Equal(buf, img) {
			t.Fatalf("scan did not repair bit %d in the caller's buffer", pos)
		}
		if got := d.Stats().CorrectedBits - before; got != 2 {
			t.Fatalf("bit %d: %d corrections counted, want 2", pos, got)
		}
	}

	// One flip in each covered part is beyond the code.
	if err := d.ProgramPageTagged(0, 5, img, splitCover, splitTail, 8, 2); err != nil {
		t.Fatalf("program: %v", err)
	}
	clearBit(t, d, 0, 5, img, inBody)
	clearBit(t, d, 0, 5, img, inFooter)
	if err := d.ReadPage(0, 5, buf); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("double flip: read err %v, want ErrCorrupted", err)
	}
	scan, err := d.ScanPage(0, 5, buf)
	if err != nil || scan.BodyValid || !scan.Torn {
		t.Fatalf("double flip: scan %+v, err %v", scan, err)
	}
}

// TestSplitCoverCodeEqualsContiguousCode: the code stored for a split cover
// is the code of the two parts laid end to end, so images written before
// and after the split entry points verify alike.
func TestSplitCoverCodeEqualsContiguousCode(t *testing.T) {
	d := mustDevice(t, testConfig())
	img := splitImage(6)
	if err := d.ProgramPageCovered(0, 1, img, splitCover, splitTail); err != nil {
		t.Fatalf("program split: %v", err)
	}
	joined := bytes.Repeat([]byte{0xFF}, 2048)
	copy(joined, img[:splitCover])
	copy(joined[splitCover:], img[2048-splitTail:])
	if err := d.programPage(0, 3, joined, splitCover+splitTail, 0, nil); err != nil {
		t.Fatalf("program contiguous: %v", err)
	}
	var codes [2][]byte
	for i, page := range []int{1, 3} {
		oob := make([]byte, 128)
		if err := d.chips[0].ReadPage(0, page, nil, oob); err != nil {
			t.Fatal(err)
		}
		codes[i] = oob[oobInitialOff:oobTagOff]
	}
	if !bytes.Equal(codes[0], codes[1]) {
		t.Fatalf("split cover code %x, contiguous code %x", codes[0], codes[1])
	}
}

// The device commands on the engine's hot path leave no garbage: OOB
// scratch, tags, slot headers and codes live on the stack, and a program
// onto a block that has been erased before reuses that block's page arrays.

func TestReadPageDoesNotAllocate(t *testing.T) {
	d := mustDevice(t, testConfig())
	img := splitImage(1)
	if err := d.ProgramPageTagged(0, 1, img, splitCover, splitTail, 3, 1); err != nil {
		t.Fatalf("program: %v", err)
	}
	if _, err := d.ProgramDelta(0, 1, splitCover, []byte{1, 2, 3, 4}); err != nil {
		t.Fatalf("delta: %v", err)
	}
	buf := make([]byte, 2048)
	var err error
	if n := testing.AllocsPerRun(50, func() { err = d.ReadPage(0, 1, buf) }); n != 0 || err != nil {
		t.Fatalf("ReadPage: %v allocations per call (err %v), want 0", n, err)
	}
}

func TestProgramDeltaDoesNotAllocate(t *testing.T) {
	d := mustDevice(t, testConfig())
	img := splitImage(2)
	g := d.Geometry()
	const runs = 50
	at := func(i int) (int, int) { return i / g.PagesPerBlock, i % g.PagesPerBlock }
	for i := 0; i <= runs; i++ {
		b, p := at(i)
		if err := d.ProgramPageTagged(b, p, img, splitCover, splitTail, i, uint64(i+1)); err != nil {
			t.Fatalf("program: %v", err)
		}
	}
	delta := []byte{9, 8, 7, 6, 5}
	i := 0
	var err error
	n := testing.AllocsPerRun(runs, func() {
		b, p := at(i)
		i++
		if _, e := d.ProgramDelta(b, p, splitCover, delta); e != nil {
			err = e
		}
	})
	if n != 0 || err != nil {
		t.Fatalf("ProgramDelta: %v allocations per call (err %v), want 0", n, err)
	}
}

func TestProgramOntoErasedBlockDoesNotAllocate(t *testing.T) {
	d := mustDevice(t, testConfig())
	img := splitImage(3)
	g := d.Geometry()
	const runs = 50
	at := func(i int) (int, int) { return i / g.PagesPerBlock, i % g.PagesPerBlock }
	blocks := runs/g.PagesPerBlock + 1
	for i := 0; i < blocks*g.PagesPerBlock; i++ {
		b, p := at(i)
		if err := d.ProgramPageTagged(b, p, img, splitCover, splitTail, i, uint64(i+1)); err != nil {
			t.Fatalf("program: %v", err)
		}
	}
	for b := 0; b < blocks; b++ {
		if err := d.EraseBlock(b); err != nil {
			t.Fatalf("erase: %v", err)
		}
	}
	i := 0
	var err error
	n := testing.AllocsPerRun(runs, func() {
		b, p := at(i)
		i++
		if e := d.ProgramPageTagged(b, p, img, splitCover, splitTail, i, uint64(i)); e != nil {
			err = e
		}
	})
	if n != 0 || err != nil {
		t.Fatalf("ProgramPageTagged onto an erased block: %v allocations per call (err %v), want 0", n, err)
	}
	buf := make([]byte, 2048)
	if err := d.ReadPage(0, 0, buf); err != nil || !bytes.Equal(buf, img) {
		t.Fatalf("page on recycled arrays reads back wrong (err %v)", err)
	}
}

// TestCopyPageDoesNotAllocate: a garbage-collection migration onto a block
// that has been erased before copies page and OOB inside the chip, charges
// one read and one program to that chip's clock, and allocates nothing.
func TestCopyPageDoesNotAllocate(t *testing.T) {
	d := mustDevice(t, testConfig())
	img := splitImage(4)
	g := d.Geometry()
	const runs = 30
	at := func(i int) (int, int) { return i / g.PagesPerBlock, i % g.PagesPerBlock }
	for i := 0; i < 4*g.PagesPerBlock; i++ { // blocks 0–1 the sources, 2–3 the destinations
		b, p := at(i)
		if err := d.ProgramPageTagged(b, p, img, splitCover, splitTail, i, uint64(i+1)); err != nil {
			t.Fatalf("program: %v", err)
		}
	}
	for b := 2; b < 4; b++ {
		if err := d.EraseBlock(b); err != nil {
			t.Fatalf("erase: %v", err)
		}
	}
	before, clock := d.Stats(), d.Now()
	i := 0
	var err error
	n := testing.AllocsPerRun(runs, func() {
		b, p := at(i)
		i++
		if e := d.CopyPage(b, p, 2+b, p); e != nil {
			err = e
		}
	})
	if n != 0 || err != nil {
		t.Fatalf("CopyPage: %v allocations per call (err %v), want 0", n, err)
	}
	after, lat := d.Stats(), d.Config().Latency
	if copies := uint64(i); after.FlashPageReads-before.FlashPageReads != copies || after.FlashPagePrograms-before.FlashPagePrograms != copies ||
		after.BytesToDevice != before.BytesToDevice || after.BytesFromDevice != before.BytesFromDevice {
		t.Fatalf("%d copy-backs counted as %+v → %+v", copies, before, after)
	}
	want := clock
	for k := 0; k < i; k++ {
		_, p := at(k)
		want += lat.PageRead + lat.programTime(false, nand.IsLSBPage(d.CellType(), p))
	}
	if d.Now() != want {
		t.Fatalf("%d copy-backs advanced the clock by %v, want %v (a read and a program each, no transfer)", i, d.Now()-clock, want-clock)
	}
	buf := make([]byte, 2048)
	if err := d.ReadPage(2, 0, buf); err != nil || !bytes.Equal(buf, img) {
		t.Fatalf("copied page reads back wrong (err %v)", err)
	}
}

// TestCopyPageStaysOnOneChip: copy-back is a chip-internal command.
func TestCopyPageStaysOnOneChip(t *testing.T) {
	cfg := testConfig()
	cfg.Chips = 2
	d := mustDevice(t, cfg)
	if err := d.programPage(0, 0, splitImage(5), 2048, 0, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	if err := d.CopyPage(0, 0, cfg.Chip.Geometry.Blocks, 0); err == nil {
		t.Fatal("copy-back from chip 0 to chip 1 accepted")
	}
	if s := d.Stats(); s.FlashPageReads != 0 || s.FlashPagePrograms != 1 {
		t.Fatalf("the refused copy-back was counted: %+v", s)
	}
}
