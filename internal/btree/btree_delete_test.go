package btree

import (
	"math/rand"
	"testing"
)

// The tree deliberately does not rebalance on delete: leaves may underflow
// or empty out entirely. The tests in this file pin down the contract that
// makes the tolerate-instead-of-rebalance choice sound — Get, Ascend and
// AscendRange must all remain correct when scans cross emptied leaves, when separator keys are deleted and when the whole tree
// is hollowed out and refilled.

// TestDeleteEmptyLeavesThenAscendRange empties whole leaf runs in the
// middle and at the right edge of the tree, then range-scans across them.
func TestDeleteEmptyLeavesThenAscendRange(t *testing.T) {
	tr := New()
	for k := int64(0); k < 1000; k++ {
		tr.Insert(k, uint64(k))
	}
	// With degree 64, each of these runs empties several adjacent leaves.
	for k := int64(100); k < 400; k++ {
		if !tr.Delete(k) {
			t.Fatalf("Delete %d failed", k)
		}
	}
	for k := int64(700); k < 1000; k++ {
		if !tr.Delete(k) {
			t.Fatalf("Delete %d failed", k)
		}
	}
	var got []int64
	tr.AscendRange(50, 750, func(k int64, v uint64) bool {
		if v != uint64(k) {
			t.Fatalf("key %d carries value %d", k, v)
		}
		got = append(got, k)
		return true
	})
	var want []int64
	for k := int64(50); k < 100; k++ {
		want = append(want, k)
	}
	for k := int64(400); k < 700; k++ {
		want = append(want, k)
	}
	if len(got) != len(want) {
		t.Fatalf("scan across emptied leaves returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: got key %d, want %d", i, got[i], want[i])
		}
	}
}

// TestDeleteAllThenReuse hollows the tree out completely (root stays
// internal, every leaf empty) and then refills it.
func TestDeleteAllThenReuse(t *testing.T) {
	tr := New()
	for k := int64(0); k < 500; k++ {
		tr.Insert(k, uint64(k))
	}
	for k := int64(0); k < 500; k++ {
		if !tr.Delete(k) {
			t.Fatalf("Delete %d failed", k)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	n := 0
	tr.Ascend(func(int64, uint64) bool { n++; return true })
	tr.AscendRange(-10, 1000, func(int64, uint64) bool { n++; return true })
	if n != 0 {
		t.Fatalf("scans visited %d keys in a hollow tree", n)
	}
	for k := int64(0); k < 500; k += 2 {
		tr.Insert(k, uint64(k+7))
	}
	if tr.Len() != 250 {
		t.Fatalf("Len = %d after refill, want 250", tr.Len())
	}
	for k := int64(0); k < 500; k++ {
		v, ok := tr.Get(k)
		if k%2 == 0 && (!ok || v != uint64(k+7)) {
			t.Fatalf("Get %d = %d,%v after refill", k, v, ok)
		}
		if k%2 == 1 && ok {
			t.Fatalf("deleted key %d visible after refill", k)
		}
	}
}

// TestDeleteSeparatorKeys deletes runs around likely separator positions
// (internal-node keys are not removed by Delete) and checks lookups and
// range scans still route correctly past the stale separators.
func TestDeleteSeparatorKeys(t *testing.T) {
	tr := New()
	for k := int64(0); k < 200; k++ {
		tr.Insert(k, uint64(k))
	}
	for k := int64(60); k < 70; k++ {
		tr.Delete(k)
	}
	for k := int64(120); k < 130; k++ {
		tr.Delete(k)
	}
	for k := int64(0); k < 200; k++ {
		_, ok := tr.Get(k)
		wantOK := !(k >= 60 && k < 70) && !(k >= 120 && k < 130)
		if ok != wantOK {
			t.Fatalf("Get %d ok=%v, want %v", k, ok, wantOK)
		}
	}
	got := 0
	tr.AscendRange(55, 75, func(k int64, _ uint64) bool { got++; return true })
	if got != 10 {
		t.Fatalf("range [55,75) visited %d keys, want 10", got)
	}
}

// TestDeleteReinsertRandomizedAgainstMap cross-checks a long random
// insert/delete/range-scan mix against a reference map, so any scan
// wrongness introduced by underflowing leaves would surface.
func TestDeleteReinsertRandomizedAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tr := New()
	ref := map[int64]uint64{}
	for i := 0; i < 50000; i++ {
		k := int64(r.Intn(2000))
		switch r.Intn(3) {
		case 0:
			tr.Insert(k, uint64(i))
			ref[k] = uint64(i)
		case 1:
			if tr.Delete(k) != (func() bool { _, ok := ref[k]; return ok })() {
				t.Fatalf("Delete %d disagreed with reference", k)
			}
			delete(ref, k)
		case 2:
			from := int64(r.Intn(2000))
			to := from + int64(r.Intn(200))
			var got int
			tr.AscendRange(from, to, func(k int64, v uint64) bool {
				if ref[k] != v {
					t.Fatalf("key %d: value %d, reference says %d", k, v, ref[k])
				}
				got++
				return true
			})
			want := 0
			for k := from; k < to; k++ {
				if _, ok := ref[k]; ok {
					want++
				}
			}
			if got != want {
				t.Fatalf("range [%d,%d): visited %d keys, reference says %d", from, to, got, want)
			}
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, reference says %d", tr.Len(), len(ref))
	}
}
