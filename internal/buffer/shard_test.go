package buffer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/core"
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
	if _, err := NewSharded(newMemIO(64), 8, 3); err == nil {
		t.Fatalf("a shard count that is not a power of two must be rejected")
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
	if s.BufferHits+s.BufferMisses == 0 {
		t.Fatalf("no pool traffic recorded: %+v", s)
	}
}

// checkIO is a PageIO that fails the test when the pool breaks one of its
// promises: a load returns an image older than the page's newest, a page is
// loaded while its write-back is in flight or while the table maps it to a
// frame, or FlushPage returns before a write-back that began before it has
// finished. A page's first
// eight bytes are a sequence number; the test's writers keep the newest one
// in latest.
type checkIO struct {
	t     *testing.T
	pool  *Pool
	mu    sync.Mutex
	pages [][]byte
	// begun and done count each page's stores; a page's stores never
	// overlap, because only the one frame holding it stores it.
	begun, done []int
	latest      []atomic.Uint64
}

func newCheckIO(t *testing.T, pages int) *checkIO {
	c := &checkIO{t: t, pages: make([][]byte, pages),
		begun: make([]int, pages), done: make([]int, pages), latest: make([]atomic.Uint64, pages)}
	for i := range c.pages {
		c.pages[i] = make([]byte, 64)
	}
	return c
}

func (c *checkIO) PageSize() int { return 64 }

func (c *checkIO) LoadPageInto(pid uint64, buf []byte, t *core.Tracker) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.begun[pid] != c.done[pid] {
		c.t.Errorf("page %d loaded while its write-back is in flight", pid)
	}
	if cached(c.pool, pid) {
		c.t.Errorf("page %d loaded while a frame holds it", pid)
	}
	copy(buf, c.pages[pid])
	if got, want := binary.LittleEndian.Uint64(buf), c.latest[pid].Load(); got != want {
		c.t.Errorf("page %d loaded at sequence %d, its newest is %d", pid, got, want)
	}
	t.Init(core.Scheme{N: 2, M: 4}, len(buf), 0)
	return nil
}

func (c *checkIO) StorePage(pid uint64, buf []byte, t *core.Tracker) error {
	c.mu.Lock()
	c.begun[pid]++
	c.mu.Unlock()
	runtime.Gosched() // the program is in flight
	c.mu.Lock()
	copy(c.pages[pid], buf)
	c.done[pid]++
	c.mu.Unlock()
	t.Reset(0)
	return nil
}

// stores returns how many stores of pid have begun.
func (c *checkIO) stores(pid uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.begun[pid]
}

// flushed fails the test unless the first n stores of pid have finished.
func (c *checkIO) flushed(pid uint64, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done[pid] < n {
		c.t.Errorf("FlushPage(%d) returned with a write-back of the page in flight", pid)
	}
}

// TestConcurrentMissesKeepThePoolsPromises runs eight goroutines over a
// working set eight times the pool, so misses evict frames of every shard
// while other goroutines hit, wait on and flush the victims' pages. Half of
// them bump a page's sequence number under the exclusive latch, the other
// half read it under the shared latch and flush the page; checkIO watches
// every load, store and flush (run with -race).
func TestConcurrentMissesKeepThePoolsPromises(t *testing.T) {
	const frames, pages = 32, 256
	io := newCheckIO(t, pages)
	pool, err := New(io, frames)
	if err != nil {
		t.Fatal(err)
	}
	io.pool = pool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1500 && !t.Failed(); i++ {
				pid := 1 + uint64(rnd.Intn(pages-1))
				if w%2 == 0 {
					h, err := pool.Fetch(pid)
					if err != nil {
						t.Error(err)
						return
					}
					seq := binary.LittleEndian.Uint64(h.Data()) + 1
					var img [8]byte
					binary.LittleEndian.PutUint64(img[:], seq)
					h.Tracker().RecordWrite(0, h.Data()[:8], img[:])
					copy(h.Data(), img[:])
					io.latest[pid].Store(seq)
					h.MarkDirty()
					h.Release()
					continue
				}
				h, err := pool.FetchShared(pid)
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := binary.LittleEndian.Uint64(h.Data()), io.latest[pid].Load(); got != want {
					t.Errorf("page %d reads sequence %d, its newest is %d", pid, got, want)
				}
				h.Release()
				if i%2 == 0 { // any page: the victims' among them
					pid := 1 + uint64(rnd.Intn(pages-1))
					n := io.stores(pid)
					if _, err := pool.FlushPage(pid); err != nil && !errors.Is(err, ErrNotCached) {
						t.Error(err)
					}
					io.flushed(pid, n)
				}
			}
		}(w)
	}
	wg.Wait()
	s, stores := pool.Stats(), 0
	for _, n := range io.done {
		stores += n
	}
	if s.BufferDirtyEvictions == 0 || s.BufferEvictions == 0 {
		t.Fatalf("no evictions: %+v", s)
	}
	// Every write-back counts once: as a dirty eviction or as a flush.
	if s.BufferDirtyEvictions > s.BufferEvictions || s.BufferDirtyEvictions+s.BufferFlushes != uint64(stores) {
		t.Fatalf("%d stores counted as %+v", stores, s)
	}
}

// gateIO is a memIO whose store of one page blocks until release is closed.
// It closes entered when that store begins, and sets stored once the image
// is in.
type gateIO struct {
	*memIO
	pid              uint64
	entered, release chan struct{}
	stored           atomic.Bool
}

func (g *gateIO) StorePage(pid uint64, buf []byte, t *core.Tracker) error {
	if pid != g.pid {
		return g.memIO.StorePage(pid, buf, t)
	}
	close(g.entered)
	<-g.release
	err := g.memIO.StorePage(pid, buf, t)
	g.stored.Store(true)
	return err
}

// TestNothingGetsPastAWriteBackInFlight: while a miss evicts dirty page X
// and its store has not finished, neither FlushPage(X) nor Fetch(X) may
// return — the fuzzy checkpoint needs X's image on Flash, and a fetch must
// not read the older one — and Fetch(X) then loads the image that was
// stored.
func TestNothingGetsPastAWriteBackInFlight(t *testing.T) {
	const x, y = 1, 2
	io := &gateIO{memIO: newMemIO(64), pid: x, entered: make(chan struct{}), release: make(chan struct{})}
	io.seed(x, 0)
	io.seed(y, 0)
	pool, err := New(io, 1) // one frame: the fetch of y evicts x
	if err != nil {
		t.Fatal(err)
	}
	h, err := pool.Fetch(x)
	if err != nil {
		t.Fatal(err)
	}
	h.Data()[0] = 7
	h.Tracker().RecordChange(0, 0, 7)
	h.MarkDirty()
	h.Release()
	errs := make(chan error, 3)
	go func() {
		h, err := pool.Fetch(y)
		if err == nil {
			h.Release()
		}
		errs <- err
	}()
	<-io.entered
	go func() {
		_, err := pool.FlushPage(x)
		switch {
		case err != nil && !errors.Is(err, ErrNotCached):
		case !io.stored.Load():
			err = errors.New("FlushPage(x) returned before the eviction stored x")
		default:
			err = nil
		}
		errs <- err
	}()
	go func() {
		h, err := pool.Fetch(x)
		if err != nil {
			errs <- err
			return
		}
		if !io.stored.Load() {
			err = errors.New("Fetch(x) returned before the eviction stored x")
		} else if got := h.Data()[0]; got != 7 {
			err = fmt.Errorf("Fetch(x) read %d, the stored image has 7", got)
		}
		h.Release()
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond) // give both a chance to get past the store
	close(io.release)
	for range 3 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
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
