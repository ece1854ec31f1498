package ipa_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ipa"
)

// valRow builds a 64-byte tuple carrying an int64 value at offset 0.
func valRow(v int64) []byte {
	b := make([]byte, 64)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

// mvccFixture builds a small table with a committed row per key in
// [0, rows), each tuple carrying an int64 value at offset 0.
func mvccFixture(t *testing.T, rows int64, val int64) (*ipa.DB, *ipa.Table) {
	t.Helper()
	db, err := ipa.Open(secCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("acct", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for k := int64(0); k < rows; k++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, k, valRow(val)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	return db, tbl
}

func commitUpdate(t *testing.T, db *ipa.DB, tbl *ipa.Table, key, val int64) {
	t.Helper()
	tx := db.Begin()
	if err := tx.UpdateAt(tbl, key, 0, int64le(val)); err != nil {
		t.Fatalf("UpdateAt: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// TestTxRepeatableRead: a transaction's first read fixes its snapshot;
// commits by other transactions stay invisible until it finishes.
func TestTxRepeatableRead(t *testing.T) {
	db, tbl := mvccFixture(t, 1, 100)
	reader := db.Begin()
	first, err := reader.Get(tbl, 0)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	commitUpdate(t, db, tbl, 0, 200)
	again, err := reader.Get(tbl, 0)
	if err != nil {
		t.Fatalf("re-Get: %v", err)
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("repeatable read violated: % x then % x", first[:8], again[:8])
	}
	if err := reader.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// A fresh read sees the newer commit.
	got, err := tbl.Get(0)
	if err != nil {
		t.Fatalf("Get after commit: %v", err)
	}
	if v := int64(binary.LittleEndian.Uint64(got)); v != 200 {
		t.Fatalf("fresh read = %d, want 200", v)
	}
}

// TestNoDirtyReads: uncommitted and aborted writes are invisible to
// snapshot readers.
func TestNoDirtyReads(t *testing.T) {
	db, tbl := mvccFixture(t, 1, 100)
	writer := db.Begin()
	if err := writer.UpdateAt(tbl, 0, 0, int64le(999)); err != nil {
		t.Fatalf("UpdateAt: %v", err)
	}
	got, err := tbl.Get(0)
	if err != nil {
		t.Fatalf("Get during pending update: %v", err)
	}
	if v := int64(binary.LittleEndian.Uint64(got)); v != 100 {
		t.Fatalf("dirty read: saw %d, want 100", v)
	}
	if err := writer.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	got, err = tbl.Get(0)
	if err != nil {
		t.Fatalf("Get after abort: %v", err)
	}
	if v := int64(binary.LittleEndian.Uint64(got)); v != 100 {
		t.Fatalf("aborted write leaked: saw %d, want 100", v)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

// TestReadersAcquireNoRecordLocks is the acceptance check for lock-free
// readers: every read path — Tx.Get, Table.Get/Exists, ScanRange,
// GetBySecondary, ScanSecondary — runs without a single record-lock
// acquisition, while a writer still takes locks.
func TestReadersAcquireNoRecordLocks(t *testing.T) {
	db, tbl := scanFixture(t)
	db.ResetStats()

	if _, err := tbl.Get(3); err != nil {
		t.Fatalf("Get: %v", err)
	}
	rtx := db.Begin()
	if _, err := rtx.Get(tbl, 5); err != nil {
		t.Fatalf("Tx.Get: %v", err)
	}
	if err := rtx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if n := countRange(t, tbl, 0, 40); n != 40 {
		t.Fatalf("ScanRange saw %d rows, want 40", n)
	}
	if rows, err := tbl.GetBySecondary("group", 2); err != nil || len(rows) != 10 {
		t.Fatalf("GetBySecondary = %d rows, %v; want 10", len(rows), err)
	}
	if n := countSecondary(t, tbl, 0, 4); n != 40 {
		t.Fatalf("ScanSecondary saw %d rows, want 40", n)
	}

	s := db.Stats()
	if s.LockAcquisitions != 0 {
		t.Fatalf("read-only paths acquired %d record locks, want 0", s.LockAcquisitions)
	}
	if s.SnapshotReads == 0 {
		t.Fatalf("snapshot reads not counted")
	}

	// Writers still lock, and the no-wait policy counts conflicts.
	w1 := db.Begin()
	if _, err := w1.GetForUpdate(tbl, 7); err != nil {
		t.Fatalf("GetForUpdate: %v", err)
	}
	w2 := db.Begin()
	if _, err := w2.GetForUpdate(tbl, 7); !errors.Is(err, ipa.ErrConflict) {
		t.Fatalf("rival GetForUpdate = %v, want ErrConflict", err)
	}
	_ = w2.Abort()
	if err := w1.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	s = db.Stats()
	if s.LockAcquisitions == 0 || s.LockConflicts == 0 {
		t.Fatalf("writer lock counters: acquisitions=%d conflicts=%d, want both > 0",
			s.LockAcquisitions, s.LockConflicts)
	}
}

// TestVersionGCReclaimsHistory pins an old snapshot, piles up superseded
// versions, reads through them, and checks the Stats counters account for
// creation, version-chasing reads and full reclamation.
func TestVersionGCReclaimsHistory(t *testing.T) {
	db, tbl := mvccFixture(t, 1, 100)
	db.ResetStats()

	reader := db.Begin()
	pinned, err := reader.Get(tbl, 0)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	for i := int64(1); i <= 3; i++ {
		commitUpdate(t, db, tbl, 0, 100+i)
	}
	again, err := reader.Get(tbl, 0)
	if err != nil {
		t.Fatalf("pinned re-Get: %v", err)
	}
	if !bytes.Equal(pinned, again) {
		t.Fatalf("pinned snapshot drifted")
	}

	s := db.Stats()
	if s.VersionsCreated != 3 {
		t.Fatalf("VersionsCreated = %d, want 3", s.VersionsCreated)
	}
	if s.VersionChainsLive != 1 {
		t.Fatalf("VersionChainsLive = %d, want 1", s.VersionChainsLive)
	}
	if s.VersionReads == 0 {
		t.Fatalf("pinned read did not chase the version chain")
	}
	if s.ActiveSnapshots != 1 || s.OldestSnapshotAge == 0 {
		t.Fatalf("snapshot gauges: active=%d age=%d, want 1 and > 0",
			s.ActiveSnapshots, s.OldestSnapshotAge)
	}

	// Releasing the snapshot lets GC collapse the whole history.
	if err := reader.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	s = db.Stats()
	if s.VersionsReclaimed != 3 {
		t.Fatalf("VersionsReclaimed = %d after release, want 3", s.VersionsReclaimed)
	}
	if s.VersionChainsLive != 0 {
		t.Fatalf("VersionChainsLive = %d after GC, want 0", s.VersionChainsLive)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

// TestSnapshotSurvivesCommittedDelete: a pinned snapshot keeps reading a
// row through its retained (zombie) index entry after the delete commits;
// fresh readers see it gone; GC drops the zombie once the snapshot ends.
func TestSnapshotSurvivesCommittedDelete(t *testing.T) {
	db, tbl := mvccFixture(t, 2, 100)
	reader := db.Begin()
	pinned, err := reader.Get(tbl, 0)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}

	del := db.Begin()
	if err := del.Delete(tbl, 0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := del.Commit(); err != nil {
		t.Fatalf("Commit delete: %v", err)
	}

	if _, err := tbl.Get(0); !errors.Is(err, ipa.ErrKeyNotFound) {
		t.Fatalf("fresh Get after committed delete = %v, want ErrKeyNotFound", err)
	}
	again, err := reader.Get(tbl, 0)
	if err != nil {
		t.Fatalf("pinned Get after committed delete: %v", err)
	}
	if !bytes.Equal(pinned, again) {
		t.Fatalf("pinned snapshot returned different bytes")
	}
	if z := db.Stats().ZombieEntries; z != 1 {
		t.Fatalf("ZombieEntries = %d, want 1 (retained pk entry)", z)
	}
	// The retained entry is justified by its version chain.
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity with zombie: %v", err)
	}

	// The key is reusable: insert-over-zombie succeeds even while the old
	// snapshot is still active.
	ins := db.Begin()
	if err := ins.Insert(tbl, 0, valRow(500)); err != nil {
		t.Fatalf("insert over zombie: %v", err)
	}
	if err := ins.Commit(); err != nil {
		t.Fatalf("Commit insert: %v", err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatalf("Commit reader: %v", err)
	}

	s := db.Stats()
	if s.ZombieEntries != 0 {
		t.Fatalf("ZombieEntries = %d after snapshot release, want 0", s.ZombieEntries)
	}
	got, err := tbl.Get(0)
	if err != nil {
		t.Fatalf("Get after reinsert: %v", err)
	}
	if v := int64(binary.LittleEndian.Uint64(got)); v != 500 {
		t.Fatalf("reinserted value = %d, want 500", v)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

// TestSecondaryMoveRetainsPairForSnapshots: committing a key move retains
// the old volatile pair (stamped retired) while a snapshot predates it, and
// fresh secondary reads re-extract and skip it.
func TestSecondaryMoveRetainsPairForSnapshots(t *testing.T) {
	db, tbl := scanFixture(t)
	reader := db.Begin()
	if _, err := reader.Get(tbl, 0); err != nil {
		t.Fatalf("Get: %v", err)
	}

	mover := db.Begin()
	if err := mover.UpdateAt(tbl, 15, 8, int64le(100)); err != nil { // group 3 -> 100
		t.Fatalf("UpdateAt: %v", err)
	}
	if err := mover.Commit(); err != nil {
		t.Fatalf("Commit move: %v", err)
	}

	if rows, err := tbl.GetBySecondary("group", 3); err != nil || len(rows) != 9 {
		t.Fatalf("group 3 after move = %d rows, %v; want 9", len(rows), err)
	}
	if rows, err := tbl.GetBySecondary("group", 100); err != nil || len(rows) != 1 {
		t.Fatalf("group 100 after move = %d rows, %v; want 1", len(rows), err)
	}
	if z := db.Stats().ZombieEntries; z != 1 {
		t.Fatalf("ZombieEntries = %d, want 1 (retained secondary pair)", z)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity with retained pair: %v", err)
	}

	if err := reader.Commit(); err != nil {
		t.Fatalf("Commit reader: %v", err)
	}
	if z := db.Stats().ZombieEntries; z != 0 {
		t.Fatalf("ZombieEntries = %d after release, want 0", z)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after GC: %v", err)
	}
}

// TestConcurrentScanConsistentCut drives money transfers against
// concurrent snapshot scans and repeatable-read transactions: every scan
// must observe a consistent cut (all rows, constant total).
func TestConcurrentScanConsistentCut(t *testing.T) {
	const (
		accounts = 8
		initial  = 100
		total    = accounts * initial
	)
	db, tbl := mvccFixture(t, accounts, initial)

	transfer := func(r *rand.Rand) error {
		a := int64(r.Intn(accounts))
		b := int64(r.Intn(accounts))
		if a == b {
			return nil
		}
		if a > b { // lock in key order to reduce no-wait aborts
			a, b = b, a
		}
		tx := db.Begin()
		av, err := tx.GetForUpdate(tbl, a)
		if err != nil {
			_ = tx.Abort()
			return err
		}
		bv, err := tx.GetForUpdate(tbl, b)
		if err != nil {
			_ = tx.Abort()
			return err
		}
		x := int64(binary.LittleEndian.Uint64(av))
		y := int64(binary.LittleEndian.Uint64(bv))
		if err := tx.UpdateAt(tbl, a, 0, int64le(x-1)); err != nil {
			_ = tx.Abort()
			return err
		}
		if err := tx.UpdateAt(tbl, b, 0, int64le(y+1)); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				if err := transfer(r); err != nil && !errors.Is(err, ipa.ErrConflict) {
					errc <- err
					return
				}
			}
		}(int64(w + 1))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				sum, rows := int64(0), 0
				err := tbl.ScanRange(0, accounts, func(_ int64, tuple []byte) bool {
					sum += int64(binary.LittleEndian.Uint64(tuple))
					rows++
					return true
				})
				if err != nil {
					errc <- err
					return
				}
				if rows != accounts || sum != total {
					errc <- fmt.Errorf("scan cut: %d rows sum %d, want %d rows sum %d", rows, sum, accounts, total)
					return
				}
			}
		}()
	}
	// A repeatable-read transaction: per-key reads across its snapshot
	// must add up too, no matter how many transfers commit meanwhile.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			tx := db.Begin()
			sum := int64(0)
			for k := int64(0); k < accounts; k++ {
				v, err := tx.Get(tbl, k)
				if err != nil {
					errc <- err
					return
				}
				sum += int64(binary.LittleEndian.Uint64(v))
			}
			if sum != total {
				errc <- fmt.Errorf("repeatable-read sum %d, want %d", sum, total)
				return
			}
			if err := tx.Commit(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Quiesced: history fully reclaimable, state verifiable.
	sum := int64(0)
	if err := tbl.ScanRange(0, accounts, func(_ int64, tuple []byte) bool {
		sum += int64(binary.LittleEndian.Uint64(tuple))
		return true
	}); err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if sum != total {
		t.Fatalf("final sum = %d, want %d", sum, total)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

// TestReopenRestartsCommitClock: commit timestamps are durable (carried in
// the WAL commit records), so snapshots and MVCC bookkeeping keep working
// across a crash and recovery.
func TestReopenRestartsCommitClock(t *testing.T) {
	db, err := ipa.Open(secCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for k := int64(0); k < 10; k++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, k, valRow(k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}

	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after Reopen: %v", err)
	}
	tbl2, ok := db2.Table("t")
	if !ok {
		t.Fatalf("table lost across Reopen")
	}

	// MVCC still works on the recovered engine: pinned snapshots survive
	// committed deletes, and integrity holds with and without zombies.
	reader := db2.Begin()
	if _, err := reader.Get(tbl2, 3); err != nil {
		t.Fatalf("Get after Reopen: %v", err)
	}
	del := db2.Begin()
	if err := del.Delete(tbl2, 3); err != nil {
		t.Fatalf("Delete after Reopen: %v", err)
	}
	if err := del.Commit(); err != nil {
		t.Fatalf("Commit after Reopen: %v", err)
	}
	if _, err := reader.Get(tbl2, 3); err != nil {
		t.Fatalf("pinned Get after Reopen+delete: %v", err)
	}
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity with zombie after Reopen: %v", err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatalf("Commit reader: %v", err)
	}
	if _, err := tbl2.Get(3); !errors.Is(err, ipa.ErrKeyNotFound) {
		t.Fatalf("Get deleted key = %v, want ErrKeyNotFound", err)
	}
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("final VerifyIntegrity: %v", err)
	}
}

// TestReadOnlyCommitWritesNoLog: a transaction that only read logged
// nothing, so its commit appends no record, flushes nothing and takes no
// timestamp; the lock its GetForUpdate took still goes.
func TestReadOnlyCommitWritesNoLog(t *testing.T) {
	db, tbl := mvccFixture(t, 2, 7)
	before, watermark := db.Stats(), db.CommitWatermark()
	tx := db.Begin()
	if _, err := tx.Get(tbl, 0); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, err := tx.GetForUpdate(tbl, 1); err != nil {
		t.Fatalf("GetForUpdate: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	after := db.Stats()
	if after.WALBytes != before.WALBytes || after.WALFlushes != before.WALFlushes || db.CommitWatermark() != watermark {
		t.Fatalf("read-only commit moved WALBytes %d → %d, WALFlushes %d → %d, watermark %d → %d",
			before.WALBytes, after.WALBytes, before.WALFlushes, after.WALFlushes, watermark, db.CommitWatermark())
	}
	commitUpdate(t, db, tbl, 1, 8) // the row GetForUpdate locked is free again
}

// TestAppendGet: AppendGet appends the visible tuple after dst's bytes,
// hands back a copy (writing to it leaves the row alone), leaves dst as
// it was on a missing key, and inside a transaction reads the snapshot
// Tx.Get reads — an update committed after the snapshot stays invisible.
func TestAppendGet(t *testing.T) {
	db, tbl := mvccFixture(t, 2, 100)
	prefix := []byte("prefix:")
	dst := append(make([]byte, 0, 256), prefix...)
	got, err := tbl.AppendGet(dst, 1)
	if err != nil {
		t.Fatalf("AppendGet: %v", err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], valRow(100)) {
		t.Fatalf("AppendGet = %q, want %q then the row", got, prefix)
	}
	for i := len(prefix); i < len(got); i++ {
		got[i] = 0xEE
	}
	if row, err := tbl.Get(1); err != nil || !bytes.Equal(row, valRow(100)) {
		t.Fatalf("the row after writing to AppendGet's result: % x %v", row, err)
	}
	if miss, err := tbl.AppendGet(dst, 99); !errors.Is(err, ipa.ErrKeyNotFound) || !bytes.Equal(miss, prefix) {
		t.Fatalf("AppendGet of a missing key = %q %v, want %q and ErrKeyNotFound", miss, err, prefix)
	}

	reader := db.Begin()
	defer reader.Abort()
	if _, err := reader.Get(tbl, 0); err != nil { // pins the snapshot
		t.Fatalf("Get: %v", err)
	}
	commitUpdate(t, db, tbl, 1, 200)
	want, err := reader.Get(tbl, 1)
	if err != nil {
		t.Fatalf("Tx.Get: %v", err)
	}
	got, err = reader.AppendGet(dst, tbl, 1)
	if err != nil {
		t.Fatalf("Tx.AppendGet: %v", err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(want, valRow(100)) {
		t.Fatalf("Tx.AppendGet = % x after Tx.Get read % x, want the snapshot's value 100", got, want)
	}
	if row, err := tbl.AppendGet(nil, 1); err != nil || !bytes.Equal(row, valRow(200)) {
		t.Fatalf("a fresh AppendGet = % x %v, want the committed value 200", row, err)
	}
}
