package ipa_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ipa"
)

// multiChipConfig is smallConfig with a 4-chip device.
func multiChipConfig(mode ipa.WriteMode, scheme ipa.Scheme, flash ipa.FlashMode) ipa.Config {
	cfg := smallConfig(mode, scheme, flash)
	cfg.Chips = 4
	return cfg
}

// TestMultiChipGeometryAndStats verifies the 4-chip device geometry and the
// per-chip counters surfaced by ipa.Stats.
func TestMultiChipGeometryAndStats(t *testing.T) {
	db, err := ipa.Open(multiChipConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	geo := db.Geometry()
	if geo.Blocks != 4*64 {
		t.Fatalf("Blocks = %d, want 256 across 4 chips", geo.Blocks)
	}
	tbl, err := db.CreateTable("t", 100)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const keys = 1500
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, tbl, k, fillTuple(100, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for i := 0; i < 3000; i++ {
		if err := updateRow(db, tbl, int64(i*13)%keys, 8, []byte{byte(i)}); err != nil {
			t.Fatalf("UpdateAt: %v", err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	s := db.Stats()
	if s.Chips != 4 || len(s.ChipStats) != 4 {
		t.Fatalf("Stats report %d chips, want 4", s.Chips)
	}
	for _, c := range s.ChipStats {
		if c.PagePrograms == 0 && c.DeltaPrograms == 0 {
			t.Fatalf("chip %d saw no programs — striping broken: %+v", c.Chip, s.ChipStats)
		}
		if c.Busy <= 0 {
			t.Fatalf("chip %d clock never advanced", c.Chip)
		}
	}
	if bal := s.ChipBalance(); bal < 0.2 {
		t.Fatalf("chip load badly skewed: balance %.2f (%+v)", bal, s.ChipStats)
	}
	if s.String() == "" {
		t.Fatalf("Stats.String empty")
	}
}

// TestMultiChipGCAndDurability runs an update-heavy workload on a 4-chip
// device until garbage collection runs, then verifies every row's content.
func TestMultiChipGCAndDurability(t *testing.T) {
	cfg := multiChipConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
	cfg.Blocks = 16 // small per-chip capacity so GC must run everywhere
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 100)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const keys = 1200 // some forty pages: more than twice the pool
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, tbl, k, fillTuple(100, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	last := make(map[int64]byte, keys)
	for i := 0; i < 12000; i++ {
		key := int64(i*13) % keys
		if err := updateRow(db, tbl, key, 8, []byte{byte(i)}); err != nil {
			t.Fatalf("UpdateAt %d: %v", i, err)
		}
		last[key] = byte(i)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	s := db.Stats()
	if s.GCRuns == 0 {
		t.Fatalf("workload never triggered GC: %+v", s)
	}
	gcChips := 0
	for _, c := range s.ChipStats {
		if c.GCRuns > 0 {
			gcChips++
		}
	}
	if gcChips < 2 {
		t.Fatalf("GC confined to %d chips, want it spread: %+v", gcChips, s.ChipStats)
	}
	for key, want := range last {
		row, err := tbl.Get(key)
		if err != nil {
			t.Fatalf("Get %d: %v", key, err)
		}
		if row[8] != want {
			t.Fatalf("key %d lost its last update: got %x want %x", key, row[8], want)
		}
	}
}

// TestMultiChipRecovery crashes and reopens a 4-chip device: committed
// updates survive, aborted ones do not, exactly as on a single chip.
func TestMultiChipRecovery(t *testing.T) {
	db, err := ipa.Open(multiChipConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for k := int64(0); k < 200; k++ {
		if err := insertRow(db, tbl, k, fillTuple(64, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	tx := db.Begin()
	if err := tx.UpdateAt(tbl, 5, 20, []byte{0xAA, 0xBB}); err != nil {
		t.Fatalf("UpdateAt: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	tx2 := db.Begin()
	if err := tx2.UpdateAt(tbl, 6, 20, []byte{0xCC}); err != nil {
		t.Fatalf("UpdateAt: %v", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	db, tbl = crashReopen(t, db, "t")
	row5, err := tbl.Get(5)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if row5[20] != 0xAA || row5[21] != 0xBB {
		t.Errorf("committed update lost after recovery: % x", row5[18:24])
	}
	row6, err := tbl.Get(6)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if want := fillTuple(64, 6); row6[20] != want[20] {
		t.Errorf("aborted update survived recovery")
	}
	// The recovered state is also what's on Flash.
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	got, err := tbl.Get(5)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got[20:22], []byte{0xAA, 0xBB}) {
		t.Fatalf("flushed state lost the committed update")
	}
}

// TestMultiChipConcurrentHammer runs transactional writers over disjoint
// key ranges of a 4-chip database; under -race it proves the whole stack —
// storage manager, chip-partitioned FTL, per-chip device state — shares no
// unsynchronised state while chips operate in parallel.
func TestMultiChipConcurrentHammer(t *testing.T) {
	cfg := multiChipConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
	cfg.BufferPoolPages = 32
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 100)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const keys = 1600
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, tbl, k, fillTuple(100, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	db.ResetStats()
	const workers = 8
	const opsPerWorker = 250
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * (keys / workers)
			for i := 0; i < opsPerWorker; i++ {
				key := base + int64(i*31)%(keys/workers)
				tx := db.Begin()
				if err := tx.UpdateAt(tbl, key, 10, []byte{byte(i), byte(w)}); err != nil {
					_ = tx.Abort()
					errs <- fmt.Errorf("worker %d update: %w", w, err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("worker %d commit: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	s := db.Stats()
	if s.CommittedTxns != workers*opsPerWorker {
		t.Fatalf("committed %d, want %d", s.CommittedTxns, workers*opsPerWorker)
	}
	busy := 0
	for _, c := range s.ChipStats {
		if c.Busy > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("only %d of 4 chips saw traffic", busy)
	}
}
