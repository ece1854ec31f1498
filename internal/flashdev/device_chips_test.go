package flashdev

import (
	"sync"
	"testing"
	"time"

	"ipa/internal/nand"
)

// TestPerChipClocksMerge verifies that the device clock is the maximum of
// the per-chip clocks (chips operate in parallel), not their sum.
func TestPerChipClocksMerge(t *testing.T) {
	cfg := testConfig()
	cfg.Chips = 2
	d := mustDevice(t, cfg)

	// Two programs on chip 0 (blocks 0..7), one on chip 1 (blocks 8..15),
	// all MSB pages of equal latency and size.
	data := pattern(2048, 1)
	if err := d.programPage(0, 0, data, 2048, 0, nil); err != nil {
		t.Fatalf("chip0 program 1: %v", err)
	}
	if err := d.programPage(1, 0, data, 2048, 0, nil); err != nil {
		t.Fatalf("chip0 program 2: %v", err)
	}
	if err := d.programPage(8, 0, data, 2048, 0, nil); err != nil {
		t.Fatalf("chip1 program: %v", err)
	}
	clocks := d.ChipClocks()
	if len(clocks) != 2 {
		t.Fatalf("ChipClocks length %d, want 2", len(clocks))
	}
	if clocks[0] != 2*clocks[1] {
		t.Fatalf("chip clocks %v: chip0 should carry twice chip1's time", clocks)
	}
	if d.Now() != clocks[0] {
		t.Fatalf("Now() = %v, want the busiest chip clock %v (not the sum)", d.Now(), clocks[0])
	}

	// AdvanceClock is a shared adjustment on top of the merge.
	d.AdvanceClock(time.Millisecond)
	if d.Now() != clocks[0]+time.Millisecond {
		t.Fatalf("AdvanceClock not merged: %v", d.Now())
	}
}

// TestPerChipStats verifies that operations are attributed to the right
// chip.
func TestPerChipStats(t *testing.T) {
	cfg := testConfig()
	cfg.Chips = 2
	d := mustDevice(t, cfg)
	data := pattern(2048, 2)
	if err := d.programPage(0, 0, data, 2048, 0, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	if err := d.programPage(8, 0, data, 2048, 0, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	if err := d.ReadPage(8, 0, make([]byte, 2048)); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if err := d.EraseBlock(0); err != nil {
		t.Fatalf("EraseBlock: %v", err)
	}
	per := d.PerChipStats()
	if per[0].PagePrograms != 1 || per[1].PagePrograms != 1 {
		t.Fatalf("program attribution wrong: %+v", per)
	}
	if per[0].BlockErases != 1 || per[1].BlockErases != 0 {
		t.Fatalf("erase attribution wrong: %+v", per)
	}
	if per[1].PageReads == 0 || per[0].PageReads != 0 {
		t.Fatalf("read attribution wrong: %+v", per)
	}
	if d.ChipOf(0) != 0 || d.ChipOf(8) != 1 || d.ChipOf(16) != -1 || d.ChipOf(-1) != -1 {
		t.Fatalf("ChipOf wrong")
	}
}

// TestChipsRaceFreedom hammers distinct chips from concurrent goroutines;
// run under -race it proves reads, programs, erases and clock reads on
// different chips share no unsynchronised state.
func TestChipsRaceFreedom(t *testing.T) {
	cfg := testConfig()
	cfg.Chips = 4
	cfg.Chip.Cell = nand.SLC
	d := mustDevice(t, cfg)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first := c * 8 // first block of the chip
			buf := make([]byte, 2048)
			for i := 0; i < 50; i++ {
				blk := first + i/16 // each page is programmed exactly once
				pg := i % 16
				if err := d.programPage(blk, pg, pattern(2048, byte(i)), 2048, 0, nil); err != nil {
					t.Errorf("chip %d program: %v", c, err)
					return
				}
				if err := d.ReadPage(blk, pg, buf); err != nil {
					t.Errorf("chip %d read: %v", c, err)
					return
				}
				if pg == 15 {
					if err := d.EraseBlock(blk); err != nil {
						t.Errorf("chip %d erase: %v", c, err)
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
				_ = d.Now()
				_ = d.Stats()
			}
		}
	}()
	wg.Wait()
	close(done)
	s := d.Stats()
	if s.FlashPagePrograms != 200 {
		t.Fatalf("programs %d, want 200", s.FlashPagePrograms)
	}
}
