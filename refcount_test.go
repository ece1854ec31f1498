package ipa

import (
	"errors"
	"testing"

	"ipa/internal/buffer"
)

// TestUpdateIsOneReference: an update transaction reads the row's before
// image and then writes its page, two fetches of one page a moment apart,
// and the pool counts them as one reference, as it counts a Get. The counts
// are read off victim choice: in a pool of four frames, one shard, every
// unpinned frame is a candidate, a clean one is priced by its count alone,
// and the cheapest is evicted. Page a takes six update transactions, page d
// three Gets and page b nine; a halving anywhere in between keeps d < a < b,
// and counting both visits of an update (a at 12) puts a above b.
func TestUpdateIsOneReference(t *testing.T) {
	db, err := Open(Config{
		PageSize:        4096,
		Blocks:          64,
		PagesPerBlock:   32,
		BufferPoolPages: 4,
		WriteMode:       IPANativeFlash,
		Scheme:          Scheme{N: 2, M: 4},
		FlashMode:       PSLC,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const rows, tupleSize = 600, 128
	table, err := db.CreateTable("t", tupleSize)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k := int64(0); k < rows; k++ {
		if err := tx.Insert(table, k, make([]byte, tupleSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The first key of each of the table's first ten pages, filled long ago.
	var keys []int64
	var pids []uint64
	for k := int64(0); k < rows && len(pids) < 10; k++ {
		rid, err := table.rid(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(pids) == 0 || pids[len(pids)-1] != rid.PageID {
			keys, pids = append(keys, k), append(pids, rid.PageID)
		}
	}
	if len(pids) < 10 || table.Pages() <= 10 {
		t.Fatalf("want ten filled pages, have %v of %d", pids, table.Pages())
	}
	pool := db.pool
	fetch := func(pid uint64) *buffer.Handle {
		t.Helper()
		h, err := pool.FetchShared(pid)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	cached := func(pid uint64) bool {
		t.Helper()
		_, err := pool.FlushPage(pid)
		if err != nil && !errors.Is(err, buffer.ErrNotCached) {
			t.Fatal(err)
		}
		return err == nil
	}
	fill, d, a, b, probes := pids[:4], pids[4], pids[5], pids[6], pids[7:]
	// Four pages fetched once, pinned together, take every frame; then d, a
	// and b each evict one of them.
	var held []*buffer.Handle
	for _, pid := range fill {
		held = append(held, fetch(pid))
	}
	for _, h := range held {
		h.Release()
	}
	for i := 0; i < 3; i++ {
		fetch(d).Release()
	}
	var patch [2]byte
	for i := 0; i < 6; i++ {
		patch[0] = byte(i)
		tx := db.Begin()
		if err := tx.UpdateAt(table, keys[5], 0, patch[:]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pool.FlushPage(a); err != nil { // clean, so priced as d and b are
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		fetch(b).Release()
	}
	// Each probe stays pinned, so the victims are the last page fetched
	// once, then d, then a — b outlives them.
	held = held[:0]
	for i, want := range []string{"the last page fetched once", "d, read three times", "a, updated six times"} {
		held = append(held, fetch(probes[i]))
		left := []bool{cached(d), cached(a), cached(b)}
		if left[0] != (i < 1) || left[1] != (i < 2) || !left[2] {
			t.Fatalf("victim %d: d, a, b resident %v; want %s evicted, and b, read nine times, resident", i+1, left, want)
		}
	}
	for _, h := range held {
		h.Release()
	}
}
