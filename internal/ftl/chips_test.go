package ftl

import (
	"bytes"
	"sync"
	"testing"

	"ipa/internal/flashdev"
	"ipa/internal/nand"
)

func testMultiChipDevice(t *testing.T, chips int) *flashdev.Device {
	t.Helper()
	dev, err := flashdev.New(flashdev.Config{
		Chips: chips,
		Chip: nand.Config{
			Geometry: nand.Geometry{
				Blocks:        32,
				PagesPerBlock: 16,
				PageSize:      2048,
				OOBSize:       128,
			},
			Cell:            nand.MLC,
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

// TestMultiChipCapacityScales verifies that the exported capacity of a
// 4-chip FTL is exactly four single-chip partitions.
func TestMultiChipCapacityScales(t *testing.T) {
	one, err := New(testMultiChipDevice(t, 1), Config{FlashMode: nand.ModeMLCFull})
	if err != nil {
		t.Fatalf("New(1): %v", err)
	}
	four, err := New(testMultiChipDevice(t, 4), Config{FlashMode: nand.ModeMLCFull})
	if err != nil {
		t.Fatalf("New(4): %v", err)
	}
	if four.Capacity() != 4*one.Capacity() {
		t.Fatalf("4-chip capacity %d, want 4x single-chip %d", four.Capacity(), one.Capacity())
	}
	if four.Chips() != 4 {
		t.Fatalf("Chips() = %d", four.Chips())
	}
}

// TestWritesLandOnTheirChip verifies the lba -> chip striping: the physical
// pages backing a logical page always live on chip lba mod chips.
func TestWritesLandOnTheirChip(t *testing.T) {
	dev := testMultiChipDevice(t, 4)
	f, err := New(dev, Config{FlashMode: nand.ModeMLCFull})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Write a handful of pages per chip, interleaved.
	for lba := 0; lba < 32; lba++ {
		if _, err := f.WritePage(lba, pageImage(f.PageSize(), byte(lba))); err != nil {
			t.Fatalf("WritePage %d: %v", lba, err)
		}
	}
	per := dev.PerChipStats()
	for c := 0; c < 4; c++ {
		if per[c].PagePrograms != 8 {
			t.Fatalf("chip %d got %d programs, want 8 (striping broken): %+v", c, per[c].PagePrograms, per)
		}
	}
	if f.ChipOf(5) != 1 || f.ChipOf(8) != 0 || f.ChipOf(-1) != -1 {
		t.Fatalf("ChipOf wrong")
	}
}

// TestPerChipGCIndependence overwrites only chip 2's logical pages until GC
// must run, and verifies the other partitions never garbage collect.
func TestPerChipGCIndependence(t *testing.T) {
	dev := testMultiChipDevice(t, 4)
	f, err := New(dev, Config{FlashMode: nand.ModeMLCFull})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const chip = 2
	perChip := f.Capacity() / 4
	hot := 10
	writes := perChip * 4
	for i := 0; i < writes; i++ {
		lba := chip + 4*(i%hot) // stays on chip 2
		if _, err := f.WritePage(lba, pageImage(f.PageSize(), byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	cs := f.ChipStats()
	if cs[chip].GCRuns == 0 || cs[chip].GCErases == 0 {
		t.Fatalf("chip %d never garbage collected: %+v", chip, cs)
	}
	for c := 0; c < 4; c++ {
		if c == chip {
			continue
		}
		if cs[c].GCRuns != 0 || cs[c].GCErases != 0 {
			t.Fatalf("idle chip %d garbage collected: %+v", c, cs)
		}
	}
	// The hot pages keep their latest content.
	got := make([]byte, f.PageSize())
	for i := writes - hot; i < writes; i++ {
		lba := chip + 4*(i%hot)
		if err := f.ReadPage(lba, got); err != nil {
			t.Fatalf("ReadPage %d: %v", lba, err)
		}
	}
	if s := f.Stats(); s.GCRuns != cs[chip].GCRuns {
		t.Fatalf("global GC stats should equal the single active chip: %+v vs %+v", s, cs)
	}
}

// TestMultiChipGCPreservesData runs the high-utilisation overwrite workload
// over all four chips and verifies every page survives GC migrations.
func TestMultiChipGCPreservesData(t *testing.T) {
	f, err := New(testMultiChipDevice(t, 4), Config{FlashMode: nand.ModeMLCFull})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	working := f.Capacity() * 7 / 10
	latest := make(map[int]byte, working)
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

// TestConcurrentChipHammer drives every chip from its own goroutine; under
// -race it proves partitions share no unsynchronised state even while GC
// runs on several chips at once.
func TestConcurrentChipHammer(t *testing.T) {
	dev := testMultiChipDevice(t, 4)
	f, err := New(dev, Config{FlashMode: nand.ModeMLCFull})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	perChip := f.Capacity() / 4
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hot := 12
			writes := perChip * 3 // forces GC on every chip
			buf := make([]byte, f.PageSize())
			for i := 0; i < writes; i++ {
				lba := c + 4*(i%hot)
				if _, err := f.WritePage(lba, pageImage(f.PageSize(), byte(i+c))); err != nil {
					t.Errorf("chip %d write %d: %v", c, i, err)
					return
				}
				if i%7 == 0 {
					if err := f.ReadPage(lba, buf); err != nil {
						t.Errorf("chip %d read %d: %v", c, i, err)
						return
					}
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = f.Stats()
				_ = f.FreeBlocks()
			}
		}
	}()
	wg.Wait()
	close(done)
	s := f.Stats()
	if s.GCRuns == 0 {
		t.Fatalf("hammer never triggered GC: %+v", s)
	}
	cs := f.ChipStats()
	for c := 0; c < 4; c++ {
		if cs[c].GCErases == 0 {
			t.Fatalf("chip %d never erased under hammer: %+v", c, cs)
		}
	}
}

// TestEraseCountCacheMatchesDevice verifies the satellite fix: the FTL's
// cached per-block erase counts stay in sync with the device across GC, so
// wear levelling needs no device calls.
func TestEraseCountCacheMatchesDevice(t *testing.T) {
	dev := testMultiChipDevice(t, 2)
	f, err := New(dev, Config{FlashMode: nand.ModeMLCFull})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hot := 8
	for i := 0; i < f.Capacity()*3; i++ {
		lba := i % hot
		if _, err := f.WritePage(lba, pageImage(f.PageSize(), byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if f.Stats().GCErases == 0 {
		t.Fatalf("workload never erased")
	}
	for b := 0; b < f.geo.Blocks; b++ {
		want, err := dev.BlockEraseCount(b)
		if err != nil {
			t.Fatalf("BlockEraseCount(%d): %v", b, err)
		}
		if got := f.blocks[b].eraseCount; got != want {
			t.Fatalf("block %d cached erase count %d, device says %d", b, got, want)
		}
	}
}
