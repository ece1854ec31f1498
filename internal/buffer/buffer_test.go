package buffer

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ipa/internal/core"
)

// memIO is an in-memory PageIO used to test the pool in isolation.
type memIO struct {
	mu       sync.Mutex
	pageSize int
	pages    map[uint64][]byte
	loads    int
	stores   int
	failLoad bool
}

func newMemIO(pageSize int) *memIO {
	return &memIO{pageSize: pageSize, pages: make(map[uint64][]byte)}
}

func (m *memIO) PageSize() int { return m.pageSize }

func (m *memIO) LoadPageInto(pid uint64, buf []byte, t *core.Tracker) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failLoad {
		return errors.New("injected load failure")
	}
	m.loads++
	img, ok := m.pages[pid]
	if !ok {
		return fmt.Errorf("page %d missing", pid)
	}
	copy(buf, img)
	t.Init(core.Scheme{N: 2, M: 4}, m.pageSize, 0)
	return nil
}

func (m *memIO) StorePage(pid uint64, buf []byte, t *core.Tracker) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stores++
	img := make([]byte, len(buf))
	copy(img, buf)
	m.pages[pid] = img
	t.Reset(0)
	return nil
}

func (m *memIO) seed(pid uint64, val byte) {
	img := make([]byte, m.pageSize)
	for i := range img {
		img[i] = val
	}
	m.pages[pid] = img
}

// cached reports whether pid currently resides in the pool.
func cached(p *Pool, pid uint64) bool {
	s := p.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.table[pid]
	return ok && i >= 0
}

func TestFetchHitAndMiss(t *testing.T) {
	io := newMemIO(256)
	io.seed(1, 0xAA)
	pool, err := New(io, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := pool.Fetch(1)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if h.Data()[0] != 0xAA {
		t.Fatalf("loaded data wrong")
	}
	h.Release()
	h2, err := pool.Fetch(1)
	if err != nil {
		t.Fatalf("Fetch again: %v", err)
	}
	h2.Release()
	s := pool.Stats()
	if s.BufferMisses != 1 || s.BufferHits != 1 {
		t.Fatalf("stats %+v", s)
	}
	if io.loads != 1 {
		t.Fatalf("page loaded %d times", io.loads)
	}
	if !cached(pool, 1) || cached(pool, 2) {
		t.Fatalf("cached() wrong")
	}
}

func TestEvictionWritesDirtyPages(t *testing.T) {
	io := newMemIO(128)
	for pid := uint64(0); pid < 10; pid++ {
		io.seed(pid, byte(pid))
	}
	pool, err := New(io, 3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Dirty page 0, then touch enough other pages to force its eviction.
	h, err := pool.Fetch(0)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	h.Data()[5] = 0x99
	h.Tracker().RecordChange(5, 0, 0x99)
	h.MarkDirty()
	h.Release()
	for pid := uint64(1); pid < 8; pid++ {
		hh, err := pool.Fetch(pid)
		if err != nil {
			t.Fatalf("Fetch %d: %v", pid, err)
		}
		hh.Release()
	}
	if cached(pool, 0) {
		t.Fatalf("page 0 should have been evicted")
	}
	if io.pages[0][5] != 0x99 {
		t.Fatalf("dirty eviction did not persist the change")
	}
	s := pool.Stats()
	if s.BufferDirtyEvictions == 0 || s.BufferEvictions == 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestHandleFlushWritesWhilePinned(t *testing.T) {
	io := newMemIO(64)
	io.seed(0, 0x11)
	pool, err := New(io, 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := pool.Fetch(0)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	h.Data()[3] = 0x77
	h.Tracker().RecordChange(3, 0x11, 0x77)
	h.MarkDirty()
	if err := h.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if io.pages[0][3] != 0x77 {
		t.Fatalf("Flush did not persist the change")
	}
	if got := pool.DirtySnapshot(); len(got) != 0 {
		t.Fatalf("page still dirty after Flush: %v", got)
	}
	stores := io.stores
	if err := h.Flush(); err != nil || io.stores != stores {
		t.Fatalf("clean Flush stored again (err %v, stores %d -> %d)", err, stores, io.stores)
	}
	h.Release()
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	io := newMemIO(64)
	for pid := uint64(0); pid < 4; pid++ {
		io.seed(pid, byte(pid))
	}
	pool, _ := New(io, 2)
	h0, err := pool.Fetch(0)
	if err != nil {
		t.Fatalf("Fetch 0: %v", err)
	}
	h1, err := pool.Fetch(1)
	if err != nil {
		t.Fatalf("Fetch 1: %v", err)
	}
	// Both frames pinned: the next fetch must fail.
	if _, err := pool.Fetch(2); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("expected ErrNoFrames, got %v", err)
	}
	h0.Release()
	if _, err := pool.Fetch(2); err != nil {
		t.Fatalf("fetch after release: %v", err)
	}
	h1.Release()
}

func TestCreateNewPage(t *testing.T) {
	io := newMemIO(64)
	pool, _ := New(io, 2)
	h, err := pool.Create(42, func(buf []byte, tr *core.Tracker) error {
		for i := range buf {
			buf[i] = 0x7F
		}
		tr.Init(core.Scheme{}, len(buf), 0)
		return nil
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	h.Release()
	if _, err := pool.Create(42, nil); err == nil {
		t.Fatalf("creating a cached page twice must fail")
	}
	// Force eviction; the created page must be stored. Its write-back is a
	// whole-page program (the scheme is disabled), so page 1 is fetched
	// often enough to cost more, and page 2 then evicts the created page.
	io.seed(1, 1)
	io.seed(2, 2)
	for _, pid := range []uint64{1, 1, 1, 2} {
		hh, err := pool.Fetch(pid)
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		hh.Release()
	}
	if img, ok := io.pages[42]; !ok || img[0] != 0x7F {
		t.Fatalf("created page was not persisted on eviction")
	}
}

func TestFlushAllAndFlushPage(t *testing.T) {
	io := newMemIO(64)
	io.seed(1, 1)
	io.seed(2, 2)
	pool, _ := New(io, 4)
	for pid := uint64(1); pid <= 2; pid++ {
		h, err := pool.Fetch(pid)
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		h.Data()[0] = 0xEE
		h.MarkDirty()
		h.Release()
	}
	if wrote, err := pool.FlushPage(1); err != nil || !wrote {
		t.Fatalf("FlushPage of a dirty page: wrote %v, %v", wrote, err)
	}
	if io.pages[1][0] != 0xEE {
		t.Fatalf("FlushPage did not persist")
	}
	if _, err := pool.FlushPage(99); !errors.Is(err, ErrNotCached) {
		t.Fatalf("expected ErrNotCached, got %v", err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if io.pages[2][0] != 0xEE {
		t.Fatalf("FlushAll did not persist")
	}
	// Flushing a clean pool is a no-op.
	stores := io.stores
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll (clean): %v", err)
	}
	if io.stores != stores {
		t.Fatalf("clean flush should not store pages")
	}
}

// TestFlushPageOfCleanPageReportsNoWrite: a page found clean — never
// dirtied, or written back since it was — is cached and flushed without a
// store, and FlushPage says so, so the checkpoint counts only its own
// writes.
func TestFlushPageOfCleanPageReportsNoWrite(t *testing.T) {
	io := newMemIO(64)
	io.seed(1, 1)
	pool, _ := New(io, 4)
	h, err := pool.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if wrote, err := pool.FlushPage(1); err != nil || wrote || io.stores != 0 {
		t.Fatalf("FlushPage of a clean cached page: wrote %v, %v, %d stores", wrote, err, io.stores)
	}
	h, err = pool.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	h.Data()[0] = 2
	h.MarkDirty()
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	h.Release()
	if wrote, err := pool.FlushPage(1); err != nil || wrote || io.stores != 1 {
		t.Fatalf("FlushPage of a page written back since it was dirtied: wrote %v, %v, %d stores", wrote, err, io.stores)
	}
}

// TestLoadFailureLeavesPoolConsistent: a failed load leaves its page
// fetchable, and — with one frame, whose resident page the failed load
// evicted — gives its frame back for the next fetch of another page.
func TestLoadFailureLeavesPoolConsistent(t *testing.T) {
	for _, c := range []struct {
		frames int
		next   uint64
	}{{frames: 2, next: 5}, {frames: 1, next: 6}} {
		io := newMemIO(64)
		io.seed(1, 1)
		pool, _ := New(io, c.frames)
		h, err := pool.Fetch(1)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		io.failLoad = true
		if _, err := pool.Fetch(5); err == nil {
			t.Fatalf("%d frames: expected load failure", c.frames)
		}
		io.failLoad = false
		io.seed(c.next, byte(c.next))
		h, err = pool.Fetch(c.next)
		if err != nil {
			t.Fatalf("%d frames: Fetch(%d) after failed load: %v", c.frames, c.next, err)
		}
		if h.Data()[0] != byte(c.next) {
			t.Fatalf("%d frames: page %d reads %#x", c.frames, c.next, h.Data()[0])
		}
		h.Release()
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(newMemIO(64), 0); err == nil {
		t.Fatalf("zero frames must be rejected")
	}
}

func TestCapacity(t *testing.T) {
	pool, _ := New(newMemIO(64), 7)
	if pool.Capacity() != 7 {
		t.Fatalf("Capacity = %d", pool.Capacity())
	}
}

// TestRefilledFrameHandsOutHandlesForTheNewPage: handles belong to the
// frame and are reused, so when the frame changes residency — by a miss or
// by Create, after an eviction — both of them must name the new page, on
// the first fetch and on every hit after it.
func TestRefilledFrameHandsOutHandlesForTheNewPage(t *testing.T) {
	io := newMemIO(64)
	for pid := uint64(1); pid <= 3; pid++ {
		io.seed(pid, byte(pid))
	}
	pool, err := New(io, 1) // one frame: every new page evicts the last
	if err != nil {
		t.Fatal(err)
	}
	check := func(h *Handle, err error, pid uint64, val byte) {
		t.Helper()
		if err != nil {
			t.Fatalf("page %d: %v", pid, err)
		}
		if h.PID() != pid || h.Data()[0] != val {
			t.Fatalf("handle names page %d with first byte %#x, want page %d with %#x", h.PID(), h.Data()[0], pid, val)
		}
		h.Release()
	}
	for round := 0; round < 2; round++ {
		for pid := uint64(1); pid <= 3; pid++ {
			h, err := pool.Fetch(pid) // miss: the frame's last page is evicted
			check(h, err, pid, byte(pid))
			h, err = pool.FetchShared(pid) // hit, the other handle
			check(h, err, pid, byte(pid))
			h, err = pool.Fetch(pid) // hit
			check(h, err, pid, byte(pid))
		}
	}
	h, err := pool.Create(9, func(buf []byte, tr *core.Tracker) error {
		buf[0] = 9
		tr.Init(core.Scheme{N: 2, M: 4}, len(buf), 0)
		return nil
	})
	check(h, err, 9, 9)
	h, err = pool.FetchShared(9)
	check(h, err, 9, 9)
	// A failed load must not leave the handles naming a page that is not
	// there: the next resident rewrites them.
	io.failLoad = true
	if _, err := pool.Fetch(2); err == nil {
		t.Fatal("injected load failure not reported")
	}
	io.failLoad = false
	h, err = pool.Fetch(3)
	check(h, err, 3, 3)
}

// TestSharedHoldersReleaseIndependently: every shared holder of a frame
// gets the same *Handle, so Release must carry no per-holder state — each
// call gives back one pin and one read latch, in any order, and the page
// stays pinned until the last.
func TestSharedHoldersReleaseIndependently(t *testing.T) {
	io := newMemIO(64)
	io.seed(1, 1)
	io.seed(2, 2)
	pool, err := New(io, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := pool.FetchShared(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.FetchShared(1)
	if err != nil {
		t.Fatal(err)
	}
	a.Release()
	// b still pins the only frame: page 2 cannot come in, and b still reads
	// page 1.
	if b.PID() != 1 || b.Data()[0] != 1 {
		t.Fatalf("second holder reads page %d after the first released", b.PID())
	}
	if pins := pool.frames[0].pin.Load(); pins != 1 {
		t.Fatalf("pin count %d with one shared holder left, want 1", pins)
	}
	b.Release()
	// Both latches are back: an exclusive fetch gets through, and the frame
	// can be evicted for page 2.
	h, err := pool.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h, err = pool.Fetch(2)
	if err != nil {
		t.Fatalf("frame still pinned after both shared holders released: %v", err)
	}
	h.Release()
}

// TestFetchOfCachedPageAllocatesNothing pins the per-frame handles.
func TestFetchOfCachedPageAllocatesNothing(t *testing.T) {
	io := newMemIO(64)
	io.seed(1, 1)
	pool, err := New(io, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, fetch := range []func(uint64) (*Handle, error){pool.Fetch, pool.FetchShared} {
		allocs := testing.AllocsPerRun(100, func() {
			h, err := fetch(1)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		})
		if allocs != 0 {
			t.Fatalf("Fetch + Release of a cached page allocates %.1f times, want 0", allocs)
		}
	}
}
