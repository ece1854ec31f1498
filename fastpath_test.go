package ipa_test

import (
	"encoding/binary"
	"testing"
)

// TestResidentUpdateTransactionAllocations pins the transaction fast path:
// Begin → UpdateAt → Commit of one row on a cached page allocates the
// transaction, the tuple copy that becomes the superseded version, and the
// version chain. The bound leaves one allocation of slack for a map or a
// queue growing a bucket mid-measurement; 22 is what this cost before.
func TestResidentUpdateTransactionAllocations(t *testing.T) {
	db, table := residentTable(t)
	var patch [8]byte
	i := int64(0)
	update := func() {
		i++
		binary.LittleEndian.PutUint64(patch[:], uint64(i))
		tx := db.Begin()
		if err := tx.UpdateAt(table, i*31%residentRows, 112, patch[:]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past every structure's growth: lock, version and active-set
	// maps, the GC queue, the first WAL segments, each page's tracker.
	for n := 0; n < 2*residentRows; n++ {
		update()
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, update)
	t.Logf("allocs per update transaction: %.2f", allocs)
	if allocs > 4 {
		t.Fatalf("a one-row update transaction allocates %.1f times, want at most 4", allocs)
	}
	before := db.Stats()
	update()
	after := db.Stats()
	if after.WALBytes == before.WALBytes || after.WALFlushes != before.WALFlushes+1 {
		t.Fatalf("the measured transaction is not a logged, flushed commit: WAL bytes %d → %d, flushes %d → %d",
			before.WALBytes, after.WALBytes, before.WALFlushes, after.WALFlushes)
	}
}

// TestResidentGetAllocations: a snapshot read of a cached row allocates
// the copy it returns and nothing else (3 before: the copy, a buffer
// handle, a page wrapper).
func TestResidentGetAllocations(t *testing.T) {
	_, table := residentTable(t)
	i := int64(0)
	get := func() {
		i++
		if v, err := table.Get(i * 31 % residentRows); err != nil || len(v) != residentTupleSize {
			t.Fatalf("Get: %v (%d bytes)", err, len(v))
		}
	}
	get()
	if allocs := testing.AllocsPerRun(2000, get); allocs != 1 {
		t.Fatalf("Table.Get of a cached row allocates %.1f times, want 1", allocs)
	}
}
