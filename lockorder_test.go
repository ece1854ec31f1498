package ipa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWritersAndReadersOfOnePage runs writers that update, and sometimes
// roll back, rows of one page against readers of the same rows: first with
// the optimistic reads as they are, then with every read resolved under
// the page's shared latch, the path a read takes when seqRetries optimistic
// rounds saw the chain move (a writer takes the stripe mutex under the
// exclusive latch, so a read holds the latch first as well). Every image a
// reader gets must be one a transaction committed, whole; nothing may
// hang; and no chain may outlive the run.
func TestWritersAndReadersOfOnePage(t *testing.T) {
	for _, retries := range []int{seqRetries, 0} {
		t.Run(fmt.Sprintf("seqRetries=%d", retries), func(t *testing.T) {
			defer func(n int) { seqRetries = n }(seqRetries)
			seqRetries = retries
			writersAndReadersOfOnePage(t)
		})
	}
}

func writersAndReadersOfOnePage(t *testing.T) {
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
