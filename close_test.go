package ipa_test

import (
	"errors"
	"testing"

	"ipa"
)

// TestOperationsAfterCloseFail verifies that table handles and transactions
// held across Close stop working: nothing may silently operate on the
// flushed buffer pool.
func TestOperationsAfterCloseFail(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := insertRow(db, tbl, 1, fillTuple(64, 1)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// Two transactions begun before Close, already holding record locks:
	// one will be committed after Close, one aborted.
	if err := insertRow(db, tbl, 2, fillTuple(64, 2)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	before := db.Begin()
	if err := before.UpdateAt(tbl, 1, 0, []byte{7}); err != nil {
		t.Fatalf("pre-Close UpdateAt: %v", err)
	}
	committer := db.Begin()
	if err := committer.UpdateAt(tbl, 2, 0, []byte{8}); err != nil {
		t.Fatalf("pre-Close UpdateAt: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// ...fails on every operation afterwards.
	if err := before.UpdateAt(tbl, 1, 0, []byte{9}); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("pre-Close tx UpdateAt after Close = %v, want ErrClosed", err)
	}
	// Commit fails but, like Abort, finishes the transaction and releases
	// its locks.
	if err := committer.Commit(); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("pre-Close tx Commit after Close = %v, want ErrClosed", err)
	}
	if err := committer.Commit(); err == nil {
		t.Errorf("second Commit must fail on a finished transaction")
	}

	// Table handles held across Close fail too.
	if err := insertRow(db, tbl, 2, fillTuple(64, 2)); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("Insert after Close = %v, want ErrClosed", err)
	}
	if _, err := tbl.Get(1); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	if err := updateRow(db, tbl, 1, 0, []byte{1}); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("UpdateAt after Close = %v, want ErrClosed", err)
	}
	if err := deleteRow(db, tbl, 1); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("Delete after Close = %v, want ErrClosed", err)
	}
	if err := tbl.Scan(func(int64, []byte) bool { return true }); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("Scan after Close = %v, want ErrClosed", err)
	}
	if err := tbl.ScanRange(0, 10, func(int64, []byte) bool { return true }); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("ScanRange after Close = %v, want ErrClosed", err)
	}
	if err := db.VerifyIntegrity(); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("VerifyIntegrity after Close = %v, want ErrClosed", err)
	}

	// Abort still succeeds after Close: the record locks must be released
	// even though the before images can no longer reach the flushed pool.
	if err := before.Abort(); err != nil {
		t.Errorf("Abort after Close = %v, want nil (locks must be released)", err)
	}
	if err := before.Abort(); err == nil {
		t.Errorf("second Abort must fail on a finished transaction")
	}
	// Because the undo could not be applied, the transaction must remain a
	// WAL loser — no abort record — so recovery rolls its flushed,
	// uncommitted update back after a restart.
	analysis := db.WAL().Analyze()
	for _, id := range []uint64{before.ID(), committer.ID()} {
		if !analysis.Losers[id] {
			t.Errorf("post-Close txn %d must stay a WAL loser (got committed=%v aborted=%v)",
				id, analysis.Committed[id], analysis.Aborted[id])
		}
	}

	// Transactions begun after Close are inert.
	tx := db.Begin()
	if _, err := tx.Get(tbl, 1); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("post-Close tx Get = %v, want ErrClosed", err)
	}
	if err := tx.Insert(tbl, 3, fillTuple(64, 3)); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("post-Close tx Insert = %v, want ErrClosed", err)
	}
	if err := tx.Commit(); !errors.Is(err, ipa.ErrClosed) {
		t.Errorf("post-Close tx Commit = %v, want ErrClosed", err)
	}
}
