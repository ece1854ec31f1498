package ipa_test

import (
	"math/rand"
	"testing"

	"ipa"
)

// TestLargerThanMemoryChurn pins the resource accounting of a heap ~8×
// the buffer pool under sustained update churn: thousands of evictions,
// delta merges and version-chain births later, the pool must still be
// able to walk the whole heap (no leaked frames), MVCC must have
// reclaimed every chain (no unbounded version history) and the physical
// structures must still verify.
func TestLargerThanMemoryChurn(t *testing.T) {
	const (
		tupleSize = 112
		records   = 12000 // ~387 heap pages against a 48-page pool
		updates   = 8000
	)
	db, err := ipa.Open(ipa.Config{
		PageSize:        4096,
		Blocks:          128,
		PagesPerBlock:   32,
		BufferPoolPages: 48,
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
		Chips:           2,
		Seed:            7,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	tbl, err := db.CreateTable("churn", tupleSize)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	row := make([]byte, tupleSize)
	for k := int64(0); k < records; k++ {
		for i := range row {
			row[i] = byte(k + int64(i))
		}
		if err := insertRow(db, tbl, k, row); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	db.ResetStats()

	// Churn phase: uniform-random tail patches across the whole keyspace,
	// so nearly every transaction misses the pool and forces an eviction.
	// A long-lived reader pinned mid-churn keeps version chains alive for
	// a while; a delete/reinsert slice adds zombie index entries.
	rng := rand.New(rand.NewSource(11))
	patch := make([]byte, 8)
	var reader *ipa.Tx
	for i := 0; i < updates; i++ {
		if i == updates/4 {
			reader = db.Begin()
			if _, err := reader.Get(tbl, 0); err != nil { // pin the snapshot
				t.Fatalf("reader Get: %v", err)
			}
		}
		if i == updates/2 && reader != nil {
			if err := reader.Commit(); err != nil {
				t.Fatalf("reader release: %v", err)
			}
			reader = nil
		}
		key := rng.Int63n(records)
		rng.Read(patch)
		tx := db.Begin()
		if err := tx.UpdateAt(tbl, key, tupleSize-len(patch), patch); err != nil {
			t.Fatalf("UpdateAt %d: %v", key, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit %d: %v", key, err)
		}
	}
	for k := int64(0); k < 200; k++ {
		tx := db.Begin()
		if err := tx.Delete(tbl, k); err != nil {
			t.Fatalf("Delete %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit delete %d: %v", k, err)
		}
		tx = db.Begin()
		if err := tx.Insert(tbl, k, row); err != nil {
			t.Fatalf("reinsert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit reinsert %d: %v", k, err)
		}
	}

	s := db.Stats()
	if s.DirtyEvictions == 0 {
		t.Fatal("no dirty evictions — the heap fit in the pool, churn proved nothing")
	}
	if s.BufferMisses == 0 {
		t.Fatal("no buffer misses under a heap 8× the pool")
	}
	if s.InPlaceAppends == 0 {
		t.Error("tail-patch churn produced no in-place appends")
	}

	// No leaked frames: a full scan pins and releases every heap page —
	// ~8× more pages than frames — so even a handful of leaked pins would
	// starve it into ErrNoFrames.
	n := 0
	if err := tbl.Scan(func(int64, []byte) bool { n++; return true }); err != nil {
		t.Fatalf("post-churn full scan: %v", err)
	}
	if n != records {
		t.Fatalf("post-churn scan saw %d rows, want %d", n, records)
	}

	// No unbounded version chains: every transaction above has finished,
	// so MVCC must have reclaimed all history and released all zombies.
	s = db.Stats()
	if s.ActiveSnapshots != 0 || s.OldestSnapshotAge != 0 {
		t.Errorf("snapshot gauges not quiescent: active=%d age=%d", s.ActiveSnapshots, s.OldestSnapshotAge)
	}
	if s.VersionChainsLive != 0 {
		t.Errorf("VersionChainsLive = %d after quiesce, want 0", s.VersionChainsLive)
	}
	if s.ZombieEntries != 0 {
		t.Errorf("ZombieEntries = %d after quiesce, want 0", s.ZombieEntries)
	}
	if s.VersionsCreated != s.VersionsReclaimed {
		t.Errorf("version leak: created %d, reclaimed %d", s.VersionsCreated, s.VersionsReclaimed)
	}

	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	// The accounting must also hold after draining everything to Flash.
	if err := db.FlushAll(); err != nil {
		t.Fatalf("final FlushAll: %v", err)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after FlushAll: %v", err)
	}
}
