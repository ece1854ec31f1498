package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("empty tree Len = %d", tr.Len())
	}
	if _, ok := tr.Get(1); ok {
		t.Fatalf("Get on empty tree must miss")
	}
	if tr.Delete(1) {
		t.Fatalf("Delete on empty tree must miss")
	}
}

func TestInsertGetSequential(t *testing.T) {
	tr := New()
	const n = 10000
	for i := int64(0); i < n; i++ {
		if !tr.Insert(i, uint64(i*2)) {
			t.Fatalf("Insert %d reported duplicate", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := int64(0); i < n; i++ {
		v, ok := tr.Get(i)
		if !ok || v != uint64(i*2) {
			t.Fatalf("Get %d = %d, %v", i, v, ok)
		}
	}
	if _, ok := tr.Get(n); ok {
		t.Fatalf("missing key reported present")
	}
}

func TestInsertRandomAndOverwrite(t *testing.T) {
	tr := New()
	r := rand.New(rand.NewSource(3))
	keys := r.Perm(5000)
	for _, k := range keys {
		tr.Insert(int64(k), uint64(k))
	}
	// Overwrite half the keys.
	for _, k := range keys[:2500] {
		if tr.Insert(int64(k), uint64(k)+1000000) {
			t.Fatalf("overwrite reported as new insert")
		}
	}
	if tr.Len() != 5000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, k := range keys[:2500] {
		if v, _ := tr.Get(int64(k)); v != uint64(k)+1000000 {
			t.Fatalf("overwrite lost")
		}
	}
}

func TestAscendOrder(t *testing.T) {
	tr := New()
	r := rand.New(rand.NewSource(9))
	for _, k := range r.Perm(3000) {
		tr.Insert(int64(k), uint64(k))
	}
	var got []int64
	tr.Ascend(func(k int64, v uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 3000 {
		t.Fatalf("Ascend visited %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("Ascend not in order")
	}
	// Early termination.
	count := 0
	tr.Ascend(func(k int64, v uint64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("Ascend did not stop: %d", count)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := int64(0); i < 1000; i++ {
		tr.Insert(i, uint64(i))
	}
	var got []int64
	tr.AscendRange(100, 200, func(k int64, v uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Fatalf("AscendRange wrong: %d keys, first %d last %d", len(got), got[0], got[len(got)-1])
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := int64(0); i < 500; i++ {
		tr.Insert(i, uint64(i))
	}
	for i := int64(0); i < 500; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete %d failed", i)
		}
	}
	if tr.Len() != 250 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	for i := int64(0); i < 500; i++ {
		_, ok := tr.Get(i)
		if i%2 == 0 && ok {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("kept key %d lost", i)
		}
	}
	if tr.Delete(0) {
		t.Fatalf("double delete must report absence")
	}
}

// TestTreeMatchesMapProperty: after an arbitrary sequence of inserts and
// deletes the tree agrees with a reference map, and Ascend visits keys in
// sorted order.
func TestTreeMatchesMapProperty(t *testing.T) {
	type op struct {
		Key    int16
		Delete bool
	}
	f := func(ops []op) bool {
		tr := New()
		ref := make(map[int64]uint64)
		for i, o := range ops {
			k := int64(o.Key)
			if o.Delete {
				delete(ref, k)
				tr.Delete(k)
			} else {
				ref[k] = uint64(i)
				tr.Insert(k, uint64(i))
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get(k)
			if !ok || got != v {
				return false
			}
		}
		prev := int64(-1 << 62)
		okOrder := true
		tr.Ascend(func(k int64, v uint64) bool {
			if k <= prev {
				okOrder = false
				return false
			}
			prev = k
			return true
		})
		return okOrder
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("tree/map equivalence property: %v", err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(int64(i), uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	for i := int64(0); i < 100000; i++ {
		tr.Insert(i, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(int64(i) % 100000)
	}
}
