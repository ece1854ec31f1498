package ipa_test

import (
	"bytes"
	"errors"
	"testing"

	"ipa"
)

// TestRedoSkipsAnUpdateWhoseDeleteReachedFlash: a row inserted before a
// checkpoint is updated and then deleted after it, and its page reaches
// Flash with the slot deleted. Redo starts at the cut, past the insert
// that would bring the slot back, so the repeated update meets a deleted
// slot and must leave it deleted.
func TestRedoSkipsAnUpdateWhoseDeleteReachedFlash(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for _, k := range []int64{1, 2} {
		if err := insertRow(db, tbl, k, fillTuple(64, k)); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := updateRow(db, tbl, 1, 0, []byte{7}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := deleteRow(db, tbl, 1); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}

	db, tbl = crashReopen(t, db, "t")
	if _, err := tbl.Get(1); !errors.Is(err, ipa.ErrKeyNotFound) {
		t.Fatalf("Get(1) after the crash: %v, want ErrKeyNotFound", err)
	}
	if row, err := tbl.Get(2); err != nil || !bytes.Equal(row, fillTuple(64, 2)) {
		t.Fatalf("Get(2) after the crash: %v (err %v)", row, err)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

// TestLoserStaysUndoneAcrossTwoCrashes is the double-crash repro of a
// recovery that undid losers without logging it: a loser's update record
// is durable at the first crash; after the restart a new transaction
// commits the same row; a second crash (no checkpoint in between) must not
// stamp the loser's before-image back over the committed value.
func TestLoserStaysUndoneAcrossTwoCrashes(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for _, k := range []int64{1, 2} {
		if err := insertRow(db, tbl, k, fillTuple(64, k)); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
	}
	original := fillTuple(64, 1)[0]

	loser := db.Begin()
	if err := loser.UpdateAt(tbl, 1, 0, []byte{7}); err != nil {
		t.Fatalf("loser update: %v", err)
	}
	// Another transaction's commit flush makes the loser's record durable.
	if err := updateRow(db, tbl, 2, 0, []byte{1}); err != nil {
		t.Fatalf("bystander commit: %v", err)
	}

	db, tbl = crashReopen(t, db, "t")
	if row, err := tbl.Get(1); err != nil || row[0] != original {
		t.Fatalf("after crash 1: row[0] = %v (err %v), want the original %d", row, err, original)
	}
	if err := updateRow(db, tbl, 1, 0, []byte{42}); err != nil {
		t.Fatalf("commit R=42: %v", err)
	}

	db, tbl = crashReopen(t, db, "t")
	row, err := tbl.Get(1)
	if err != nil {
		t.Fatalf("Get after crash 2: %v", err)
	}
	if row[0] != 42 {
		t.Fatalf("after crash 2: row[0] = %d, want 42 (original %d: the retired loser was undone again)", row[0], original)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}
