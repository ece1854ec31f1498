package buffer

import (
	"sync"
	"testing"
)

// TestShardSizing covers the automatic shard count and NewSharded.
func TestShardSizing(t *testing.T) {
	cases := []struct {
		frames int
		shards int
	}{
		{1, 1}, {4, 1}, {8, 1}, {15, 1}, {16, 2}, {48, 4}, {128, 16}, {256, 16}, {1024, 16},
	}
	for _, c := range cases {
		pool, err := New(newMemIO(64), c.frames)
		if err != nil {
			t.Fatalf("New(%d): %v", c.frames, err)
		}
		if pool.Shards() != c.shards {
			t.Errorf("New(%d): %d shards, want %d", c.frames, pool.Shards(), c.shards)
		}
		if pool.Capacity() != c.frames {
			t.Errorf("New(%d): capacity %d", c.frames, pool.Capacity())
		}
	}
	if _, err := NewSharded(newMemIO(64), 8, 16); err == nil {
		t.Fatalf("more shards than frames must be rejected")
	}
	if _, err := NewSharded(newMemIO(64), 8, 0); err == nil {
		t.Fatalf("zero shards must be rejected")
	}
	pool, err := NewSharded(newMemIO(64), 10, 4)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	if pool.Capacity() != 10 || pool.Shards() != 4 {
		t.Fatalf("NewSharded: capacity %d shards %d", pool.Capacity(), pool.Shards())
	}
}

// TestFetchSharedAllowsConcurrentReaders verifies that two shared handles
// to the same page can be held at once (an exclusive latch would deadlock
// here).
func TestFetchSharedAllowsConcurrentReaders(t *testing.T) {
	io := newMemIO(64)
	io.seed(1, 0xAB)
	pool, _ := New(io, 4)
	h1, err := pool.FetchShared(1)
	if err != nil {
		t.Fatalf("FetchShared: %v", err)
	}
	h2, err := pool.FetchShared(1)
	if err != nil {
		t.Fatalf("second FetchShared: %v", err)
	}
	if h1.Data()[0] != 0xAB || h2.Data()[0] != 0xAB {
		t.Fatalf("shared readers see wrong data")
	}
	h1.Release()
	h2.Release()
	// The frame must be writable again afterwards.
	h3, err := pool.Fetch(1)
	if err != nil {
		t.Fatalf("Fetch after shared readers: %v", err)
	}
	h3.Data()[0] = 0xCD
	h3.MarkDirty()
	h3.Release()
}

// TestConcurrentFetchAcrossShards runs parallel writers and readers over a
// working set larger than the pool, so fetches, evictions and write-backs
// from different shards interleave (run with -race).
func TestConcurrentFetchAcrossShards(t *testing.T) {
	io := newMemIO(128)
	const pages = 96
	for pid := uint64(0); pid < pages; pid++ {
		io.seed(pid, byte(pid))
	}
	pool, err := NewSharded(io, 32, 4)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	const workers = 8
	const opsPerWorker = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				pid := uint64((w*opsPerWorker + i*7) % pages)
				if i%3 == 0 {
					// Writer: bump the page's second byte under the
					// exclusive latch.
					h, err := pool.Fetch(pid)
					if err != nil {
						t.Errorf("Fetch %d: %v", pid, err)
						return
					}
					h.Data()[1]++
					h.Tracker().RecordChange(1, h.Data()[1]-1, h.Data()[1])
					h.MarkDirty()
					h.Release()
				} else {
					// Reader: the first byte never changes.
					h, err := pool.FetchShared(pid)
					if err != nil {
						t.Errorf("FetchShared %d: %v", pid, err)
						return
					}
					if h.Data()[0] != byte(pid) {
						t.Errorf("page %d corrupted: first byte %x", pid, h.Data()[0])
						h.Release()
						return
					}
					h.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	// After flushing, the persisted images must carry the stable first
	// byte as well.
	for pid := uint64(0); pid < pages; pid++ {
		if io.pages[pid][0] != byte(pid) {
			t.Fatalf("persisted page %d corrupted", pid)
		}
	}
	s := pool.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatalf("no pool traffic recorded: %+v", s)
	}
}

// TestMoreWorkersThanFrames runs more concurrent fetchers than one shard
// has frames: transient all-pinned states must resolve via the retry
// path instead of surfacing ErrNoFrames while pins are short-lived.
func TestMoreWorkersThanFrames(t *testing.T) {
	io := newMemIO(64)
	const pages = 16
	for pid := uint64(0); pid < pages; pid++ {
		io.seed(pid, byte(pid))
	}
	pool, err := NewSharded(io, 4, 1)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pid := uint64((w*31 + i) % pages)
				h, err := pool.Fetch(pid)
				if err != nil {
					t.Errorf("Fetch %d: %v", pid, err)
					return
				}
				if h.Data()[0] != byte(pid) {
					t.Errorf("page %d wrong content", pid)
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentFlushDuringWrites interleaves FlushAll with writers to
// exercise the flush path's pin+latch protocol (run with -race).
func TestConcurrentFlushDuringWrites(t *testing.T) {
	io := newMemIO(64)
	const pages = 16
	for pid := uint64(0); pid < pages; pid++ {
		io.seed(pid, byte(pid))
	}
	pool, _ := NewSharded(io, 16, 4)
	stop := make(chan struct{})
	flusherDone := make(chan struct{})
	go func() {
		defer close(flusherDone)
		for {
			select {
			case <-stop:
				return
			default:
				if err := pool.FlushAll(); err != nil {
					t.Errorf("FlushAll: %v", err)
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				pid := uint64((w + i) % pages)
				h, err := pool.Fetch(pid)
				if err != nil {
					t.Errorf("Fetch: %v", err)
					return
				}
				h.Data()[2] = byte(i)
				h.MarkDirty()
				h.Release()
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	<-flusherDone
}
