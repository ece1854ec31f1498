package ipa_test

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"

	"ipa"
)

// secCfg is the small-device configuration of the secondary-index tests:
// an 8-page pool forces entry pages onto Flash continuously.
func secCfg() ipa.Config {
	return ipa.Config{
		PageSize:        2048,
		Blocks:          24,
		PagesPerBlock:   16,
		BufferPoolPages: 8,
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
	}
}

// secRow builds a 64-byte tuple with the group field (the secondary key)
// at offset 8 and a generation marker at offset 0.
func secRow(group int64, gen byte) []byte {
	b := make([]byte, 64)
	b[0] = gen
	binary.LittleEndian.PutUint64(b[8:], uint64(group))
	return b
}

func TestSecondaryIndexBasics(t *testing.T) {
	db, err := ipa.Open(secCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("events", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tbl.CreateSecondaryIndex("group", ipa.Int64Field(8)); err != nil {
		t.Fatalf("CreateSecondaryIndex: %v", err)
	}
	if _, err := tbl.CreateSecondaryIndex("group", ipa.Int64Field(8)); err == nil {
		t.Fatalf("duplicate index name accepted")
	}
	// 60 rows in 6 groups of 10.
	for k := int64(0); k < 60; k++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, k, secRow(k%6, 1)); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	rows, err := tbl.GetBySecondary("group", 3)
	if err != nil {
		t.Fatalf("GetBySecondary: %v", err)
	}
	if len(rows) != 10 {
		t.Fatalf("group 3: %d rows, want 10", len(rows))
	}
	if _, err := tbl.GetBySecondary("nope", 3); !errors.Is(err, ipa.ErrIndexNotFound) {
		t.Fatalf("unknown index: %v", err)
	}
	// Range scan over groups [2, 5): 30 rows, keys ascending.
	var scanned int
	last := int64(-1)
	err = tbl.ScanSecondary("group", 2, 5, func(key int64, tuple []byte) bool {
		if key < last {
			t.Fatalf("scan out of order: %d after %d", key, last)
		}
		last = key
		scanned++
		return true
	})
	if err != nil {
		t.Fatalf("ScanSecondary: %v", err)
	}
	if scanned != 30 {
		t.Fatalf("scanned %d rows in [2,5), want 30", scanned)
	}
	// An update moving a row between groups.
	tx := db.Begin()
	if err := tx.UpdateAt(tbl, 9, 8, int64le(100)); err != nil {
		t.Fatalf("UpdateAt: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit update: %v", err)
	}
	if rows, _ = tbl.GetBySecondary("group", 3); len(rows) != 9 {
		t.Fatalf("group 3 after move: %d rows, want 9", len(rows))
	}
	if rows, _ = tbl.GetBySecondary("group", 100); len(rows) != 1 {
		t.Fatalf("group 100 after move: %d rows, want 1", len(rows))
	}
	// A transactional delete stays invisible to snapshot readers until it
	// commits; only then does the entry disappear.
	tx = db.Begin()
	if err := tx.Delete(tbl, 15); err != nil { // group 3
		t.Fatalf("Delete: %v", err)
	}
	if rows, _ = tbl.GetBySecondary("group", 3); len(rows) != 9 {
		t.Fatalf("group 3 during delete txn: %d rows, want 9", len(rows))
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit delete: %v", err)
	}
	if rows, _ = tbl.GetBySecondary("group", 3); len(rows) != 8 {
		t.Fatalf("group 3 after committed delete: %d rows, want 8", len(rows))
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	s, ok := tbl.SecondaryIndex("group")
	if !ok || s.Len() != 59 {
		t.Fatalf("index entries = %d (ok=%v), want 59", s.Len(), ok)
	}
}

func TestSecondaryIndexRollback(t *testing.T) {
	db, err := ipa.Open(secCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("events", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tbl.CreateSecondaryIndex("group", ipa.Int64Field(8)); err != nil {
		t.Fatalf("CreateSecondaryIndex: %v", err)
	}
	for k := int64(0); k < 20; k++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, k, secRow(k%2, 1)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	// Abort an insert, a delete and a key-moving update; none may stick.
	tx := db.Begin()
	if err := tx.Insert(tbl, 50, secRow(7, 1)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := tx.Delete(tbl, 2); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := tx.UpdateAt(tbl, 5, 8, int64le(9)); err != nil {
		t.Fatalf("UpdateAt: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if rows, _ := tbl.GetBySecondary("group", 7); len(rows) != 0 {
		t.Fatalf("aborted insert visible under group 7")
	}
	if rows, _ := tbl.GetBySecondary("group", 9); len(rows) != 0 {
		t.Fatalf("aborted update visible under group 9")
	}
	if rows, _ := tbl.GetBySecondary("group", 0); len(rows) != 10 {
		t.Fatalf("group 0 after rollback: %d rows, want 10", len(rows))
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after rollback: %v", err)
	}
}

// TestSecondaryIndexCrashRecovery mirrors the primary-key crash test:
// transactional churn across all three maintenance paths, a crash without
// flushing, and a reopened database whose secondary index must match the
// committed history exactly — recovered from entry pages plus the log,
// never from a heap scan.
func TestSecondaryIndexCrashRecovery(t *testing.T) {
	db, err := ipa.Open(secCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tbl, err := db.CreateTable("events", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tbl.CreateSecondaryIndex("group", ipa.Int64Field(8)); err != nil {
		t.Fatalf("CreateSecondaryIndex: %v", err)
	}
	const keys = 200
	group := make(map[int64]int64) // committed key -> group
	for k := int64(0); k < keys; k++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, k, secRow(k%8, 1)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		group[k] = k % 8
	}
	// Delete every third key, move every fifth survivor to group 50+k%3.
	for k := int64(0); k < keys; k += 3 {
		tx := db.Begin()
		if err := tx.Delete(tbl, k); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		delete(group, k)
	}
	for k := int64(1); k < keys; k += 5 {
		if _, live := group[k]; !live {
			continue
		}
		g := 50 + k%3
		tx := db.Begin()
		if err := tx.UpdateAt(tbl, k, 8, int64le(g)); err != nil {
			t.Fatalf("UpdateAt: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		group[k] = g
	}
	// Losers across all three paths: must be invisible after recovery.
	loser := db.Begin()
	if err := loser.Insert(tbl, 10000, secRow(99, 9)); err != nil {
		t.Fatalf("loser insert: %v", err)
	}
	if err := loser.Delete(tbl, 1); err != nil {
		t.Fatalf("loser delete: %v", err)
	}
	if err := loser.UpdateAt(tbl, 2, 8, int64le(98)); err != nil {
		t.Fatalf("loser update: %v", err)
	}

	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	tbl2, ok := db2.Table("events")
	if !ok {
		t.Fatalf("table missing after reopen")
	}
	if names := tbl2.SecondaryIndexes(); len(names) != 1 || names[0] != "group" {
		t.Fatalf("secondary indexes after reopen: %v", names)
	}
	// Committed groups must resolve exactly; loser groups must be empty.
	wantPerGroup := make(map[int64]int)
	for _, g := range group {
		wantPerGroup[g]++
	}
	for g, want := range wantPerGroup {
		rows, err := tbl2.GetBySecondary("group", g)
		if err != nil {
			t.Fatalf("GetBySecondary %d: %v", g, err)
		}
		if len(rows) != want {
			t.Fatalf("group %d: %d rows after recovery, want %d", g, len(rows), want)
		}
	}
	for _, g := range []int64{99, 98} {
		if rows, _ := tbl2.GetBySecondary("group", g); len(rows) != 0 {
			t.Fatalf("loser residue under group %d: %d rows", g, len(rows))
		}
	}
	s, _ := tbl2.SecondaryIndex("group")
	if s.Len() != len(group) {
		t.Fatalf("recovered index carries %d entries, want %d", s.Len(), len(group))
	}
	// The recovered database keeps working through the secondary path.
	tx := db2.Begin()
	if err := tx.Insert(tbl2, 10001, secRow(4, 3)); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after post-recovery work: %v", err)
	}
}

// TestSecondaryIndexBackfill covers index creation over existing rows and
// the persistence contract of the backfill (survives via FlushAll).
func TestSecondaryIndexBackfill(t *testing.T) {
	db, err := ipa.Open(secCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("events", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for k := int64(0); k < 40; k++ {
		if err := insertRow(db, tbl, k, secRow(k%4, 1)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	s, err := tbl.CreateSecondaryIndex("group", ipa.Int64Field(8))
	if err != nil {
		t.Fatalf("CreateSecondaryIndex: %v", err)
	}
	if s.Len() != 40 || s.Keys() != 4 {
		t.Fatalf("backfill: %d entries / %d keys, want 40 / 4", s.Len(), s.Keys())
	}
	rows, err := tbl.GetBySecondary("group", 2)
	if err != nil || len(rows) != 10 {
		t.Fatalf("group 2 after backfill: %d rows (%v), want 10", len(rows), err)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

// TestKeysCountsOnlyLiveKeys: a row moved A→B behind an open snapshot
// leaves A with a retained pair only, so the index holds one live entry
// under one live key, before and after the snapshot's release.
func TestKeysCountsOnlyLiveKeys(t *testing.T) {
	db, err := ipa.Open(secCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("events", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	s, err := tbl.CreateSecondaryIndex("group", ipa.Int64Field(8))
	if err != nil {
		t.Fatalf("CreateSecondaryIndex: %v", err)
	}
	if err := insertRow(db, tbl, 1, secRow(1, 1)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	reader := db.Begin()
	if _, err := reader.Get(tbl, 1); err != nil {
		t.Fatalf("Get: %v", err)
	}
	mover := db.Begin()
	if err := mover.UpdateAt(tbl, 1, 8, int64le(2)); err != nil {
		t.Fatalf("UpdateAt: %v", err)
	}
	if err := mover.Commit(); err != nil {
		t.Fatalf("Commit move: %v", err)
	}
	if z := db.Stats().ZombieEntries; z != 1 {
		t.Fatalf("ZombieEntries = %d, want 1 (the pair under group 1 is retained)", z)
	}
	if s.Len() != 1 || s.Keys() != 1 {
		t.Fatalf("behind the snapshot: %d entries / %d keys, want 1 / 1", s.Len(), s.Keys())
	}
	if err := reader.Commit(); err != nil {
		t.Fatalf("Commit reader: %v", err)
	}
	if s.Len() != 1 || s.Keys() != 1 {
		t.Fatalf("after the release: %d entries / %d keys, want 1 / 1", s.Len(), s.Keys())
	}
}

// TestSecondaryConcurrentUpdateAt hammers single-statement Tx.UpdateAt
// transactions on the same keys from several goroutines (retrying lock
// conflicts): every committed move must relocate its secondary entry, so
// no stale entry may survive.
func TestSecondaryConcurrentUpdateAt(t *testing.T) {
	db, err := ipa.Open(secCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("events", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tbl.CreateSecondaryIndex("group", ipa.Int64Field(8)); err != nil {
		t.Fatalf("CreateSecondaryIndex: %v", err)
	}
	for k := int64(0); k < 8; k++ {
		if err := insertRow(db, tbl, k, secRow(0, 1)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := int64(i % 8)
				err := ipa.ErrConflict
				for errors.Is(err, ipa.ErrConflict) {
					err = updateRow(db, tbl, k, 8, int64le(int64(g*1000+i)))
				}
				if err != nil {
					t.Errorf("UpdateAt: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after concurrent updates: %v", err)
	}
	// A snapshot release drains the pairs the moves retained for readers.
	if _, err := tbl.Get(0); err != nil {
		t.Fatalf("Get: %v", err)
	}
	s, _ := tbl.SecondaryIndex("group")
	if s.Len() != 8 {
		t.Fatalf("index carries %d entries, want 8", s.Len())
	}
}

// int64le is the little-endian encoding of v.
func int64le(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

// TestGetBySecondaryAtTheKeyRangeEdges looks up the extreme int64 keys:
// MaxInt64 has no successor, so a lookup of one key is not a range scan.
func TestGetBySecondaryAtTheKeyRangeEdges(t *testing.T) {
	db, err := ipa.Open(secCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("events", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tbl.CreateSecondaryIndex("group", ipa.Int64Field(8)); err != nil {
		t.Fatalf("CreateSecondaryIndex: %v", err)
	}
	groups := []int64{math.MaxInt64, math.MinInt64, 5}
	tx := db.Begin()
	for k, g := range groups {
		if err := tx.Insert(tbl, int64(k), secRow(g, byte(k))); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for k, g := range groups {
		rows, err := tbl.GetBySecondary("group", g)
		if err != nil || len(rows) != 1 || rows[0][0] != byte(k) {
			t.Errorf("group %d: %d rows, %v; want row %d", g, len(rows), err, k)
		}
	}
}
