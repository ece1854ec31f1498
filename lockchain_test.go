package ipa_test

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa"
)

// The record lock is the version chain's owner (internal/txn). These tests
// hold the public API to what that must keep; lockorder_test.go runs
// writers against readers of one page.

// TestLockOnlyChainGoesWithItsLock: GetForUpdate on a row with no history
// makes a chain that carries only the lock; commit and abort both drop it.
func TestLockOnlyChainGoesWithItsLock(t *testing.T) {
	db, tbl := mvccFixture(t, 4, 7)
	for _, end := range []string{"commit", "abort"} {
		tx := db.Begin()
		if _, err := tx.GetForUpdate(tbl, 1); err != nil {
			t.Fatalf("GetForUpdate: %v", err)
		}
		if live := db.Stats().VersionChainsLive; live != 1 {
			t.Fatalf("%d chains while the lock is held, want 1", live)
		}
		var err error
		if end == "commit" {
			err = tx.Commit()
		} else {
			err = tx.Abort()
		}
		if err != nil {
			t.Fatalf("%s: %v", end, err)
		}
		if live := db.Stats().VersionChainsLive; live != 0 {
			t.Fatalf("%d chains after a GetForUpdate-only %s, want 0", live, end)
		}
	}
}

// TestHeldRowRefusesEveryOtherWriter: whichever way a transaction took a
// row — an update, a locking read or a delete — another transaction's
// update, locking read and delete of it conflict until it ends.
func TestHeldRowRefusesEveryOtherWriter(t *testing.T) {
	db, tbl := mvccFixture(t, 4, 7)
	take := map[string]func(*ipa.Tx) error{
		"UpdateAt":     func(tx *ipa.Tx) error { return tx.UpdateAt(tbl, 2, 0, int64le(9)) },
		"GetForUpdate": func(tx *ipa.Tx) error { _, err := tx.GetForUpdate(tbl, 2); return err },
		"Delete":       func(tx *ipa.Tx) error { return tx.Delete(tbl, 2) },
	}
	for held, hold := range take {
		holder := db.Begin()
		if err := hold(holder); err != nil {
			t.Fatalf("%s: %v", held, err)
		}
		for name, rival := range take {
			tx := db.Begin()
			if err := rival(tx); !errors.Is(err, ipa.ErrConflict) {
				t.Errorf("%s of a row held by %s = %v, want ErrConflict", name, held, err)
			}
			_ = tx.Abort()
		}
		if err := holder.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		commitUpdate(t, db, tbl, 2, 7) // the row is free again
	}
	if live := db.Stats().VersionChainsLive; live != 0 {
		t.Fatalf("%d chains left, want 0", live)
	}
}

// TestDeadWriterIsAdopted: a transaction whose commit record never became
// durable gives up its lock but leaves its bytes in the heap and its chain
// pending. Readers keep reading the last committed image, and the next
// writer of the row takes it over without a conflict.
func TestDeadWriterIsAdopted(t *testing.T) {
	plan := ipa.NewFaultPlan(0, ipa.CrashBefore)
	plan.SetKinds(ipa.OpLogFlush)
	cfg := secCfg()
	cfg.Faults = plan
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("acct", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for k := int64(0); k < 4; k++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, k, valRow(7)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	readsCommitted := func(when string) {
		t.Helper()
		if b, err := tbl.Get(2); err != nil || int64(binary.LittleEndian.Uint64(b)) != 7 {
			t.Fatalf("%s: row 2 reads %v (%v), want the committed 7", when, b[:8], err)
		}
	}

	plan.Arm(1, ipa.CrashBefore) // the next log flush fails
	dead := db.Begin()
	if err := dead.UpdateAt(tbl, 2, 0, int64le(666)); err != nil {
		t.Fatalf("UpdateAt: %v", err)
	}
	if err := dead.Commit(); !errors.Is(err, ipa.ErrPowerLost) {
		t.Fatalf("Commit over a failed log flush = %v, want ErrPowerLost", err)
	}
	readsCommitted("after the failed commit")

	next := db.Begin()
	if err := next.UpdateAt(tbl, 2, 0, int64le(8)); err != nil {
		t.Fatalf("the next writer of a dead writer's row: %v", err)
	}
	if b, err := next.Get(tbl, 2); err != nil || int64(binary.LittleEndian.Uint64(b)) != 8 {
		t.Fatalf("the adopting writer reads %v (%v), want its own 8", b, err)
	}
	readsCommitted("while the adopting writer is pending")
	rival := db.Begin()
	if err := rival.UpdateAt(tbl, 2, 0, int64le(9)); !errors.Is(err, ipa.ErrConflict) {
		t.Fatalf("a rival of the adopting writer = %v, want ErrConflict", err)
	}
	_ = rival.Abort()
	if err := next.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	readsCommitted("after the adopting writer rolled back")
}

// TestInsertsBesideRolledBackInserts: rolling back an insert deletes the
// slot under the page's exclusive latch and lowers the heap file's live
// count, whose mutex an insert holds across its fetch of the same tail
// page. The count used to change before the latch was let go, and inserters
// beside aborters deadlocked within a few hundred transactions.
func TestInsertsBesideRolledBackInserts(t *testing.T) {
	const workers, txns = 4, 3000
	db, err := ipa.Open(ipa.Config{PageSize: 2048, Blocks: 64, PagesPerBlock: 64, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	var next, committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				tx := db.Begin()
				if err := tx.Insert(tbl, next.Add(1), valRow(int64(i))); err != nil {
					t.Errorf("Insert: %v", err)
					_ = tx.Abort()
					return
				}
				var err error
				if i%2 == 0 {
					err = tx.Abort()
				} else if err = tx.Commit(); err == nil {
					committed.Add(1)
				}
				if err != nil {
					t.Errorf("end: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// No Close: it would wait for the stuck transactions.
		t.Fatal("inserters and aborters of one table did not finish: an insert's rollback and an insert wait on each other")
	}
	defer db.Close()
	if got := tbl.Count(); got != uint64(committed.Load()) {
		t.Fatalf("Count = %d, want the %d committed inserts", got, committed.Load())
	}
}
