package ipa

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWritersAndReadersOfOnePage runs writers that update, and sometimes
// roll back, rows of one page against readers of the same rows. A reader
// resolves the chain with no latch, then reads the slot under the page's
// shared latch and resolves again there if the chain moved; a writer takes
// the stripe mutex under the exclusive latch, so both hold the latch
// first. Every image a reader gets must be one a transaction committed,
// whole; nothing may hang; and no chain may outlive the run.
func TestWritersAndReadersOfOnePage(t *testing.T) {
	const rows, writers, readers, ops, reads = 2, 2, 2, 400, 2000
	db, err := Open(Config{PageSize: 2048, Blocks: 16, PagesPerBlock: 16, BufferPoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < rows; k++ { // both rows on the table's first page
		tx := db.Begin()
		if err := tx.Insert(tbl, k, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var committed sync.Map // value -> true, once its commit returned
	committed.Store(uint64(0), true)
	start := make(chan struct{})
	var left atomic.Int32 // readers still reading: writers keep going meanwhile
	left.Store(readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 1; i <= ops || left.Load() > 0; i++ {
				v := uint64(w+1)<<32 | uint64(i)
				img := make([]byte, 16) // the value twice: a torn image shows
				binary.LittleEndian.PutUint64(img, v)
				binary.LittleEndian.PutUint64(img[8:], v)
				tx := db.Begin()
				err := tx.UpdateAt(tbl, rng.Int63n(rows), 0, img)
				switch {
				case errors.Is(err, ErrConflict) || err == nil && i%4 == 0:
					err = tx.Abort()
				case err == nil:
					if err = tx.Commit(); err == nil {
						committed.Store(v, true)
					}
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	seen := make([]map[uint64]bool, readers)
	for r := range seen {
		seen[r] = map[uint64]bool{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer left.Add(-1)
			<-start
			rng := rand.New(rand.NewSource(int64(r) + 100))
			for i := 0; i < reads; i++ {
				b, err := tbl.Get(rng.Int63n(rows))
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				v := binary.LittleEndian.Uint64(b)
				if w := binary.LittleEndian.Uint64(b[8:]); w != v {
					t.Errorf("torn image: %#x / %#x", v, w)
					return
				}
				seen[r][v] = true
			}
		}(r)
	}
	close(start)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("writers and readers of one page did not finish: a page latch and a stripe mutex wait on each other")
	}
	for _, m := range seen {
		for v := range m {
			if _, ok := committed.Load(v); !ok {
				t.Errorf("a read returned %#x, which no transaction committed", v)
			}
		}
	}
	if live := db.Stats().VersionChainsLive; live != 0 {
		t.Errorf("%d version chains left after every transaction ended, want 0", live)
	}
}

// TestDeletesAndReinsertsBehindSnapshots runs writers that move, delete and
// reinsert their own keys against readers that pin and release snapshots,
// so index entries are retained, parked and dropped all the while. A drop
// takes the table mutex under the GC mutex (gcMu → table mutex → page latch
// → version stripe): nothing may hang, an insert of a key whose delete
// committed must never meet the key's old entry, and once everyone has
// stopped the indexes must match the heap with nothing left retained.
func TestDeletesAndReinsertsBehindSnapshots(t *testing.T) {
	const writers, keysEach, readers, rounds = 2, 3, 2, 60
	db, err := Open(Config{PageSize: 2048, Blocks: 24, PagesPerBlock: 16, BufferPoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateSecondaryIndex("g", Int64Field(0)); err != nil {
		t.Fatal(err)
	}
	row := func(group int64) []byte {
		b := make([]byte, 64)
		binary.LittleEndian.PutUint64(b, uint64(group))
		return b
	}
	commit := func(op func(tx *Tx) error) error {
		tx := db.Begin()
		if err := op(tx); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	}
	for k := int64(0); k < writers*keysEach; k++ {
		if err := commit(func(tx *Tx) error { return tx.Insert(tbl, k, row(k%2)) }); err != nil {
			t.Fatal(err)
		}
	}
	var pinned sync.WaitGroup // every reader holds a snapshot before the writers start
	pinned.Add(readers)
	var left atomic.Int32 // writers still writing: readers keep pinning meanwhile
	left.Store(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer left.Add(-1)
			pinned.Wait()
			for i := 0; i < rounds; i++ {
				k := int64(w*keysEach + i%keysEach)
				steps := []func(tx *Tx) error{
					func(tx *Tx) error { return tx.UpdateAt(tbl, k, 0, row(int64(i % 3))[:8]) },
					func(tx *Tx) error { return tx.Delete(tbl, k) },
					func(tx *Tx) error { return tx.Insert(tbl, k, row(k%2)) },
				}
				for s, step := range steps {
					if err := commit(step); err != nil {
						t.Errorf("writer %d, key %d, step %d: %v", w, k, s, err)
						return
					}
					runtime.Gosched() // let a reader pin a snapshot behind the commit
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 1))
			for first := true; first || left.Load() > 0; first = false {
				tx := db.Begin()
				for i := 0; i < 3; i++ {
					if _, err := tx.Get(tbl, rng.Int63n(writers*keysEach)); err != nil && !errors.Is(err, ErrKeyNotFound) {
						t.Errorf("reader %d: %v", r, err)
					}
					if _, err := tbl.GetBySecondary("g", rng.Int63n(3)); err != nil {
						t.Errorf("reader %d: %v", r, err)
					}
					if first && i == 0 {
						pinned.Done()
					}
					runtime.Gosched() // let a writer commit behind the snapshot
				}
				if err := tx.Abort(); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("deletes and reinserts behind snapshots did not finish: the GC mutex and a table mutex wait on each other")
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.ZombiesReclaimed == 0 {
		t.Fatal("no index entry was retained: no reader held a snapshot behind a delete or a move")
	}
	if s.ZombieEntries != 0 || s.VersionChainsLive != 0 {
		t.Fatalf("after every transaction ended %d index entries retained, %d version chains; want 0, 0", s.ZombieEntries, s.VersionChainsLive)
	}
	if n := tbl.Count(); n != writers*keysEach {
		t.Fatalf("Count = %d after every key was reinserted, want %d", n, writers*keysEach)
	}
}

// TestTableSizesUnderWriters reads Count, Pages, IndexPages and a secondary
// index's Pages, each on a goroutine of its own, while transactions insert
// rows, move their secondary keys and delete every other one, so every
// page list and slot map grows all the while. Those live in the heap and
// in the index entry files, which lock nothing of their own: the table
// mutex guards them, and under -race a reader or a writer of one outside
// it shows up here.
func TestTableSizesUnderWriters(t *testing.T) {
	const writers, keysEach = 2, 300
	db, err := Open(Config{PageSize: 2048, Blocks: 32, PagesPerBlock: 16, BufferPoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := tbl.CreateSecondaryIndex("g", Int64Field(0))
	if err != nil {
		t.Fatal(err)
	}
	commit := func(op func(tx *Tx) error) error {
		tx := db.Begin()
		if err := op(tx); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	}
	var left atomic.Int32 // writers still writing: the readers keep reading meanwhile
	left.Store(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer left.Add(-1)
			row := make([]byte, 64)
			for i := 0; i < keysEach; i++ {
				k := int64(w*keysEach + i)
				var group [8]byte // the secondary key moves from 0 to 1..3
				binary.LittleEndian.PutUint64(group[:], uint64(k%3+1))
				steps := []func(tx *Tx) error{
					func(tx *Tx) error { return tx.Insert(tbl, k, row) },
					func(tx *Tx) error { return tx.UpdateAt(tbl, k, 0, group[:]) },
				}
				if k%2 == 0 {
					steps = append(steps, func(tx *Tx) error { return tx.Delete(tbl, k) })
				}
				for s, step := range steps {
					if err := commit(step); err != nil {
						t.Errorf("writer %d, key %d, step %d: %v", w, k, s, err)
						return
					}
				}
			}
		}(w)
	}
	for name, size := range map[string]func() int{
		"Count":      func() int { return int(tbl.Count()) },
		"Pages":      tbl.Pages,
		"IndexPages": tbl.IndexPages,
		"secondary":  sec.Pages,
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || left.Load() > 0; first = false {
				if n := size(); n > writers*keysEach {
					t.Errorf("%s = %d with %d rows written", name, n, writers*keysEach)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := tbl.Count(); n != writers*keysEach/2 {
		t.Fatalf("Count = %d, want the %d rows not deleted", n, writers*keysEach/2)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
