package ipa_test

import (
	"encoding/binary"
	"testing"

	"ipa"
)

// TestResidentUpdateTransactionAllocations pins the transaction fast path:
// Begin → UpdateAt → Commit of one row on a cached page allocates the
// transaction and the tuple copy that becomes the superseded version; the
// version chain is a spare one that GC dropped. The bound leaves one
// allocation of slack for a map or a queue growing a bucket
// mid-measurement; 22 is what this cost before.
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
	if allocs > 3 {
		t.Fatalf("a one-row update transaction allocates %.1f times, want at most 3", allocs)
	}
	before := db.Stats()
	update()
	after := db.Stats()
	if after.WALBytes == before.WALBytes || after.WALFlushes != before.WALFlushes+1 {
		t.Fatalf("the measured transaction is not a logged, flushed commit: WAL bytes %d → %d, flushes %d → %d",
			before.WALBytes, after.WALBytes, before.WALFlushes, after.WALFlushes)
	}
}

// TestLoadAllocations pins the bulk load every experiment starts with: a
// 64-row insert transaction into a fresh table of the benchmark's geometry
// allocates at most one object a row, amortised over 4,096 rows — the
// B-tree's splits, the transaction and its growing lock, undo and write
// sets. Nothing is kept per row that the row does not need: the version
// chain is recycled, the undo list points at the log's records, and the
// slot and index entries stay on the stack (4.5 a row before).
func TestLoadAllocations(t *testing.T) {
	db, table := benchTable(t, 0, 1, ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4})
	row := make([]byte, residentTupleSize)
	next := int64(0)
	load := func() {
		if err := loadBatch(db, table, next, 64, row); err != nil {
			t.Fatal(err)
		}
		next += 64
	}
	const batches = 64
	perRow := testing.AllocsPerRun(batches, load) / 64
	t.Logf("allocations per loaded row: %.2f over %d rows", perRow, next)
	if perRow > 1 {
		t.Fatalf("loading a row allocates %.2f times, want at most 1", perRow)
	}
	if n := table.Count(); n != uint64(next) || next < 4096 {
		t.Fatalf("the table holds %d of the %d rows loaded", n, next)
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

// TestMissAllocations holds the resident bounds off the fast path, with one
// allocation of slack each for an amortised refill (a slab of page arrays
// on a device that has not erased yet, a WAL segment): on the benchmark's
// flash_rw and flash_trad tables, eight times the pool, a Table.Get whose
// page is not resident allocates the copy it returns, and a one-row update
// transaction that misses and evicts a dirty page — as an in-place append or
// an out-of-place write, garbage collection included — allocates what it
// does on a cached page. The miss, the reconstruction and the eviction
// themselves allocate nothing (8.5 → 2.0 allocations per flash_rw
// operation, and 1.5 once version chains were recycled).
func TestMissAllocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   ipa.WriteMode
		scheme ipa.Scheme
	}{
		{"ipa-native", ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}},
		{"traditional", ipa.Traditional, ipa.Scheme{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, table := missTable(t, tc.mode, tc.scheme)
			key, pages := missWalk(table), int64(table.Pages())
			var patch [8]byte
			i := int64(0)
			update := func() {
				i++
				if err := missUpdateTxn(db, table, key(i), i, &patch); err != nil {
					t.Fatal(err)
				}
			}
			get := func() {
				i++
				if v, err := table.Get(key(i)); err != nil || len(v) != residentTupleSize {
					t.Fatalf("Get: %v (%d bytes)", err, len(v))
				}
			}
			// churn rewrites sixteen other bytes of the row, every one changed
			// since the page's last lap — more than the N×M bytes a page's
			// delta area holds — so the page leaves as a whole-page write and
			// its delta area is empty again. After a lap of churn only its
			// last pages are resident — the pool keeps frames bound for
			// whole-page writes longest — and every other page has room for
			// appends on Flash. The next runs+1 pages of the walk, fewer than
			// a lap less the pool, are therefore all misses, and updates of
			// them leave as appends.
			var wide [16]byte
			churn := func() {
				i++
				for b := range wide {
					wide[b] = byte(1 + i/pages%255)
				}
				tx := db.Begin()
				if err := tx.UpdateAt(table, key(i), 96, wide[:]); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			const runs = 800
			// Warm up until every frame is dirty, every frame's tracker has
			// been used, the device collects garbage and the reference counts
			// have settled: an update adds one to its page's count, halved
			// every 20 × frames references; with fewer than eight laps a few
			// pages still outlive a lap, so the measured walk would hit them.
			for n := int64(0); n < 8*pages; n++ {
				churn()
			}
			before := db.Stats()
			updateAllocs := testing.AllocsPerRun(runs, update)
			mid := db.Stats()
			for n := int64(0); n < pages; n++ {
				churn()
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			churned := db.Stats()
			getAllocs := testing.AllocsPerRun(runs, get)
			after := db.Stats()
			t.Logf("allocations per missing update transaction %.0f, per missing Get %.0f", updateAllocs, getAllocs)
			if d := mid.DirtyEvictions - before.DirtyEvictions; mid.BufferMisses-before.BufferMisses <= runs || d <= runs {
				t.Fatalf("the measured updates did not all miss and evict: %d misses, %d dirty evictions",
					mid.BufferMisses-before.BufferMisses, d)
			}
			if after.BufferMisses-churned.BufferMisses <= runs {
				t.Fatalf("the measured gets did not all miss: %d misses", after.BufferMisses-churned.BufferMisses)
			}
			if tc.mode == ipa.IPANativeFlash && mid.IPAAppendEvictions == before.IPAAppendEvictions {
				t.Fatal("no eviction was an in-place append")
			}
			if updateAllocs > 5 {
				t.Fatalf("an update transaction that misses and evicts allocates %.0f times, want at most 5", updateAllocs)
			}
			if getAllocs > 2 {
				t.Fatalf("a Table.Get that misses allocates %.0f times, want at most 2", getAllocs)
			}
		})
	}
}
