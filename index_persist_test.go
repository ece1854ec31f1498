package ipa_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"ipa"
)

// TestPersistentIndexCrashRecovery drives transactional inserts, deletes
// and reinserts, crashes without flushing, and verifies Reopen recovers
// the primary-key index from its entry pages and the log — including keys
// whose tuples do NOT carry the key in their first bytes, which the old
// heap-scan rebuild could never recover.
func TestPersistentIndexCrashRecovery(t *testing.T) {
	cfg := ipa.Config{
		PageSize:        2048,
		Blocks:          24,
		PagesPerBlock:   16,
		BufferPoolPages: 8,
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
	}
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tbl, err := db.CreateTable("opaque", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	// Tuples deliberately do not embed the key: byte 0 is a generation
	// marker, the rest is payload derived from the key.
	row := func(key int64, gen byte) []byte {
		b := make([]byte, 64)
		b[0] = gen
		binary.LittleEndian.PutUint64(b[8:], uint64(key*7919))
		return b
	}
	const keys = 200
	for k := int64(0); k < keys; k++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, k, row(k, 1)); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	// Delete every third key; reinsert every ninth with a new generation.
	for k := int64(0); k < keys; k += 3 {
		tx := db.Begin()
		if err := tx.Delete(tbl, k); err != nil {
			t.Fatalf("Delete %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit delete: %v", err)
		}
	}
	for k := int64(0); k < keys; k += 9 {
		tx := db.Begin()
		if err := tx.Insert(tbl, k, row(k, 2)); err != nil {
			t.Fatalf("reinsert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit reinsert: %v", err)
		}
	}
	// A loser: uncommitted delete + insert that must both roll back.
	loser := db.Begin()
	if err := loser.Delete(tbl, 1); err != nil {
		t.Fatalf("loser delete: %v", err)
	}
	if err := loser.Insert(tbl, 100000, row(100000, 9)); err != nil {
		t.Fatalf("loser insert: %v", err)
	}

	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	tbl2, ok := db2.Table("opaque")
	if !ok {
		t.Fatalf("table missing after reopen")
	}
	want := uint64(0)
	for k := int64(0); k < keys; k++ {
		gen := byte(1)
		if k%3 == 0 {
			if k%9 == 0 {
				gen = 2
			} else {
				gen = 0 // deleted
			}
		}
		got, err := tbl2.Get(k)
		if gen == 0 {
			if !errors.Is(err, ipa.ErrKeyNotFound) {
				t.Fatalf("key %d: want ErrKeyNotFound, got %v / %v", k, got, err)
			}
			continue
		}
		want++
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if got[0] != gen {
			t.Fatalf("key %d: generation %d, want %d", k, got[0], gen)
		}
	}
	if _, err := tbl2.Get(100000); !errors.Is(err, ipa.ErrKeyNotFound) {
		t.Fatalf("loser insert resurrected: %v", err)
	}
	if got := tbl2.Count(); got != want {
		t.Fatalf("Count=%d after recovery, want %d", got, want)
	}
	// The recovered database keeps working.
	tx := db2.Begin()
	if err := tx.Insert(tbl2, 5000, row(5000, 3)); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after post-recovery work: %v", err)
	}
}

// TestIndexMaintenanceUsesDeltaAppends verifies the tentpole effect: under
// IPA the index entry pages are maintained by in-place delta appends, and
// under the traditional baseline they are not.
func TestIndexMaintenanceUsesDeltaAppends(t *testing.T) {
	run := func(mode ipa.WriteMode, scheme ipa.Scheme, flash ipa.FlashMode) ipa.Stats {
		cfg := ipa.Config{
			PageSize:        4096,
			Blocks:          64,
			PagesPerBlock:   32,
			BufferPoolPages: 16,
			WriteMode:       mode,
			Scheme:          scheme,
			FlashMode:       flash,
		}
		db, err := ipa.Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()
		tbl, err := db.CreateTable("t", 64)
		if err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		for k := int64(0); k < 2000; k++ {
			if err := insertRow(db, tbl, k, make([]byte, 64)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		db.ResetStats()
		// Churn: delete + reinsert keys (each op edits one index entry).
		for i := 0; i < 3000; i++ {
			k := int64(i*7919) % 2000
			tx := db.Begin()
			if err := tx.Delete(tbl, k); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			tx = db.Begin()
			if err := tx.Insert(tbl, k, make([]byte, 64)); err != nil {
				t.Fatalf("reinsert: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		}
		if err := db.FlushAll(); err != nil {
			t.Fatalf("FlushAll: %v", err)
		}
		return db.Stats()
	}

	ipaStats := run(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
	base := run(ipa.Traditional, ipa.Scheme{}, ipa.MLCFull)

	if ipaStats.IndexInPlaceAppends == 0 {
		t.Fatalf("IPA run performed no index delta appends: %+v", ipaStats)
	}
	if base.IndexInPlaceAppends != 0 {
		t.Fatalf("traditional run must not append in place: %+v", base)
	}
	if base.IndexOutOfPlaceWrites <= ipaStats.IndexOutOfPlaceWrites {
		t.Fatalf("IPA should rewrite fewer index pages: base=%d ipa=%d",
			base.IndexOutOfPlaceWrites, ipaStats.IndexOutOfPlaceWrites)
	}
	if ipaStats.IndexPageWrites == 0 || ipaStats.IndexDeltaRecords == 0 {
		t.Fatalf("index counters not populated: %+v", ipaStats)
	}
}

// TestTxDeleteReservesKeyUntilCommit pins the key-level 2PL rule: an
// uncommitted delete keeps the key reserved, so a concurrent insert of
// the same key fails with ErrDuplicateKey instead of racing the delete —
// without the reservation, aborting the deleter would resurrect a tuple
// whose key was re-taken and break the index/heap bijection.
func TestTxDeleteReservesKeyUntilCommit(t *testing.T) {
	db, err := ipa.Open(ipa.Config{
		PageSize: 2048, Blocks: 16, PagesPerBlock: 16, BufferPoolPages: 16,
		WriteMode: ipa.IPANativeFlash, Scheme: ipa.Scheme{N: 2, M: 4}, FlashMode: ipa.PSLC,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 32)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	seed := db.Begin()
	if err := seed.Insert(tbl, 7, make([]byte, 32)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	deleter := db.Begin()
	if err := deleter.Delete(tbl, 7); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// Snapshot readers still see the committed row (the delete is pending,
	// not committed), and the key stays reserved against rival inserts.
	if _, err := tbl.Get(7); err != nil {
		t.Fatalf("Get during pending delete: %v", err)
	}
	rival := db.Begin()
	if err := rival.Insert(tbl, 7, make([]byte, 32)); !errors.Is(err, ipa.ErrDuplicateKey) {
		t.Fatalf("insert over a pending delete = %v, want ErrDuplicateKey", err)
	}
	_ = rival.Abort()
	if err := deleter.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if _, err := tbl.Get(7); err != nil {
		t.Fatalf("tuple not restored after abort: %v", err)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after abort: %v", err)
	}

	// After a COMMITTED delete the key is free again.
	deleter = db.Begin()
	if err := deleter.Delete(tbl, 7); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := deleter.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	taker := db.Begin()
	if err := taker.Insert(tbl, 7, make([]byte, 32)); err != nil {
		t.Fatalf("insert after committed delete: %v", err)
	}
	if err := taker.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

// TestTxDeleteRollback verifies that aborting a transactional delete
// restores both the tuple and its index entry.
func TestTxDeleteRollback(t *testing.T) {
	db, err := ipa.Open(ipa.Config{
		PageSize: 2048, Blocks: 16, PagesPerBlock: 16, BufferPoolPages: 16,
		WriteMode: ipa.IPANativeFlash, Scheme: ipa.Scheme{N: 2, M: 4}, FlashMode: ipa.PSLC,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 32)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	row := make([]byte, 32)
	row[9] = 0x5A
	tx := db.Begin()
	if err := tx.Insert(tbl, 7, row); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	tx = db.Begin()
	if err := tx.Delete(tbl, 7); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// A snapshot read still sees the committed row while the delete is
	// uncommitted.
	if _, err := tbl.Get(7); err != nil {
		t.Fatalf("Get mid-delete: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	got, err := tbl.Get(7)
	if err != nil {
		t.Fatalf("Get after rollback: %v", err)
	}
	if got[9] != 0x5A {
		t.Fatalf("restored tuple corrupted: % x", got)
	}
	if got := tbl.Count(); got != 1 {
		t.Fatalf("Count=%d after rollback, want 1", got)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}
