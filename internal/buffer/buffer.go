// Package buffer implements the database buffer pool.
//
// The pool caches fixed-size database pages, pins them for access, and
// evicts the least frequently fetched of the frames next to a clock hand.
// To scale with concurrent traffic the pool is partitioned into
// independently-latched shards: pages are hashed by page identifier onto a
// shard, each shard has its own frame array, hash table, clock hand,
// reference counts and statistics, so readers and writers operating on
// different pages proceed in parallel. Within a shard, every frame
// additionally carries a read/write latch that serialises access to the
// page image itself: Fetch returns the page exclusively latched,
// FetchShared allows any number of concurrent readers.
//
// Replacement is frequency-aware. A shard keeps a saturating 4-bit count of
// fetches per page identifier — of every page it has ever held, resident or
// not: identifiers are dense, so that is one flat array, sixteen counts to a
// word, where 2Q or ARC keep ghost lists. Every agePeriod × frames fetches
// all counts are halved, and the victim is the lowest count among the first
// victimWindow unpinned frames from the hand. A page that comes back after
// an eviction is therefore still known to be hot, which second-chance CLOCK
// (refClock in the tests) and counts on resident frames alone (GCLOCK)
// cannot know. docs/ARCHITECTURE.md has the trace replays that chose the
// three constants, and the one pattern that pays for them: uniform access.
//
// The pool's interaction with In-Place Appends is deliberately thin,
// exactly as the paper argues: the buffer always holds the up-to-date page
// image and all updates happen in place as usual; the only addition is
// that every frame carries a core.Tracker fed by the page layer, and that
// dirty evictions hand both the page image and the tracker to the storage
// manager, which decides between an in-place append and a traditional
// out-of-place write.
package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"ipa/internal/core"
)

// Errors returned by the pool.
var (
	// ErrNoFrames is returned when every frame of the page's shard stays
	// pinned for longer than the retry budget and no victim can be
	// evicted.
	ErrNoFrames = errors.New("buffer: all frames pinned")
	// ErrNotCached is returned by FlushPage for pages not in the pool.
	ErrNotCached = errors.New("buffer: page not cached")
)

// Pins are held only for the duration of one page operation, so a shard
// whose frames are all pinned usually frees one within microseconds.
// Fetch and Create therefore retry briefly before surfacing ErrNoFrames —
// without this, sharding would turn "more concurrent operations than
// frames in one shard" into a hard error even while other shards sit
// idle. The budget is generous enough for transient pile-ups and still
// bounded so leaked handles fail loudly.
const (
	victimRetries    = 200
	victimSpinPhase  = 16 // attempts that just yield before sleeping
	victimRetrySleep = 100 * time.Microsecond
)

// victimBackoff waits before the attempt-th retry.
func victimBackoff(attempt int) {
	if attempt < victimSpinPhase {
		runtime.Gosched()
	} else {
		time.Sleep(victimRetrySleep)
	}
}

// PageIO is implemented by the storage manager. LoadPageInto fills buf with
// the up-to-date page image (delta records already applied) and makes t —
// the frame's tracker, whatever it tracked before — the change tracker of the
// new buffer residency (core.Tracker.Init). StorePage persists a dirty
// page; it must reset the tracker for the page's next residency before
// returning. Implementations must be safe for concurrent use: different
// shards issue loads and stores in parallel.
type PageIO interface {
	PageSize() int
	LoadPageInto(pid uint64, buf []byte, t *core.Tracker) error
	StorePage(pid uint64, buf []byte, t *core.Tracker) error
}

// Stats counts buffer pool events, aggregated over all shards.
type Stats struct {
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
	Flushes        uint64
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.DirtyEvictions += o.DirtyEvictions
	s.Flushes += o.Flushes
}

type frame struct {
	// latch serialises access to data and tracker. The invariant tying it
	// to the shard state: a goroutine holds or waits on the latch only
	// while it holds a pin, so a frame with pin == 0 has a free latch and
	// may be evicted or reused under the shard mutex alone.
	latch sync.RWMutex
	pid   uint64
	data  []byte
	// tracker belongs to the frame like data does: every residency
	// re-initialises it in place, so a miss allocates none.
	tracker core.Tracker
	pin     int
	dirty   bool
	valid   bool
	// recLSN is the log sequence number stamped when the frame last went
	// from clean to dirty: the oldest log record whose effects may only
	// exist in this frame. Fuzzy checkpoints flush dirty pages in recLSN
	// order so the WAL truncation cut can advance past the oldest one.
	recLSN uint64
	// excl and shrd are the two handles the frame ever hands out, so a
	// fetch allocates nothing. Their pid follows the frame's: residentLocked
	// rewrites it, under the shard mutex, while pin == 0 — when nobody
	// holds either.
	excl, shrd Handle
}

// residentLocked starts a new residency of the frame: pid is its page, one
// pin is taken for the caller, and both handles now name pid. The caller
// holds the shard mutex and has claimed the frame (pin == 0), then loads
// or formats the page, which initialises the tracker.
func (s *shard) residentLocked(idx int, pid uint64, dirty bool) *frame {
	f := &s.frames[idx]
	f.pid = pid
	f.pin = 1
	f.dirty = dirty
	f.recLSN = 0
	if dirty {
		f.recLSN = s.stampLocked()
	}
	f.valid = true
	f.excl.pid, f.shrd.pid = pid, pid
	s.table[pid] = idx
	return f
}

// vacateLocked undoes residentLocked after the load or format failed.
func (s *shard) vacateLocked(f *frame) {
	delete(s.table, f.pid)
	f.valid = false
	f.pin = 0
	f.dirty = false
	f.recLSN = 0
}

// handle returns the frame's exclusive or shared handle.
func (f *frame) handle(shared bool) *Handle {
	if shared {
		return &f.shrd
	}
	return &f.excl
}

// shard is one independently-latched partition of the pool.
type shard struct {
	mu     sync.Mutex
	io     PageIO
	frames []frame
	table  map[uint64]int
	hand   int
	stats  Stats
	lsn    func() uint64 // source of recLSN stamps (nil = always 0)
	// counts packs the 4-bit reference counts of the shard's pages sixteen
	// to a word (slot); fetches counts towards the next halving.
	counts  []uint64
	stride  uint64
	fetches int
}

// The replacement policy's constants (TinyLFU's): counts saturate at
// countMax and are halved every agePeriod fetches per frame of the shard.
const (
	countMax     = 15
	agePeriod    = 10
	victimWindow = 16 // unpinned frames from the hand a victim is chosen among
)

// slot returns the word and shift of the count of pid, the shard's
// pid/stride-th page: identifiers are dense, shardFor deals them round robin.
func (s *shard) slot(pid uint64) (w, shift uint64) {
	n := pid / s.stride
	return n >> 4, n & 15 * 4
}

// countLocked returns pid's reference count; a page never fetched has 0.
func (s *shard) countLocked(pid uint64) uint64 {
	if w, shift := s.slot(pid); w < uint64(len(s.counts)) {
		return s.counts[w] >> shift & countMax
	}
	return 0
}

// touchLocked counts one successful fetch of pid — a hit, or a miss once
// the page is loaded; Create is not a fetch — and, when the period is up,
// halves every count of the shard, word-parallel. The array grows only the
// first time a page is fetched: while the database is built.
func (s *shard) touchLocked(pid uint64) {
	w, shift := s.slot(pid)
	for w >= uint64(len(s.counts)) {
		s.counts = append(s.counts, 0)
	}
	if s.counts[w]>>shift&countMax < countMax {
		s.counts[w] += 1 << shift
	}
	if s.fetches++; s.fetches >= agePeriod*len(s.frames) {
		s.fetches = 0
		for i, c := range s.counts {
			s.counts[i] = c >> 1 & 0x7777777777777777
		}
	}
}

// Pool is a fixed-capacity page cache partitioned into shards.
type Pool struct {
	io     PageIO
	shards []*shard
}

// Sharding defaults: shards are a power of two so the pid hash reduces to a
// mask, each shard keeps at least minFramesPerShard frames so small pools
// (unit tests, tiny devices) degenerate to a single shard.
const (
	maxShards         = 16
	minFramesPerShard = 8
)

// defaultShards returns the shard count used by New for a pool of nframes.
func defaultShards(nframes int) int {
	n := nframes / minFramesPerShard
	if n > maxShards {
		n = maxShards
	}
	s := 1
	for s*2 <= n {
		s *= 2
	}
	return s
}

// New creates a pool with nframes frames spread over an automatically
// chosen number of shards.
func New(io PageIO, nframes int) (*Pool, error) {
	return NewSharded(io, nframes, defaultShards(nframes))
}

// NewSharded creates a pool with nframes frames spread over nshards
// independently-latched shards.
func NewSharded(io PageIO, nframes, nshards int) (*Pool, error) {
	if nframes <= 0 {
		return nil, fmt.Errorf("buffer: pool needs at least one frame, got %d", nframes)
	}
	if nshards <= 0 || nshards > nframes {
		return nil, fmt.Errorf("buffer: shard count %d invalid for %d frames", nshards, nframes)
	}
	p := &Pool{io: io, shards: make([]*shard, nshards)}
	size := io.PageSize()
	base, rem := nframes/nshards, nframes%nshards
	for i := range p.shards {
		n := base
		if i < rem {
			n++
		}
		s := &shard{
			io:     io,
			frames: make([]frame, n),
			table:  make(map[uint64]int, n),
			stride: uint64(nshards),
		}
		for j := range s.frames {
			f := &s.frames[j]
			f.data = make([]byte, size)
			f.excl = Handle{shard: s, idx: j}
			f.shrd = Handle{shard: s, idx: j, shared: true}
		}
		p.shards[i] = s
	}
	return p, nil
}

// shardFor maps a page identifier onto its shard. Page identifiers are
// allocated sequentially, so a plain modulo spreads neighbouring pages
// across shards and scans fan out over all partitions.
func (p *Pool) shardFor(pid uint64) *shard {
	return p.shards[pid%uint64(len(p.shards))]
}

// Capacity returns the total number of frames.
func (p *Pool) Capacity() int {
	n := 0
	for _, s := range p.shards {
		n += len(s.frames)
	}
	return n
}

// Shards returns the number of independently-latched partitions.
func (p *Pool) Shards() int { return len(p.shards) }

// Stats returns a snapshot of the pool counters summed over all shards.
func (p *Pool) Stats() Stats {
	var out Stats
	for _, s := range p.shards {
		s.mu.Lock()
		out.add(s.stats)
		s.mu.Unlock()
	}
	return out
}

// Handle is a pinned, latched reference to a buffered page. It must be
// released exactly once. Handles from Fetch and Create hold the frame
// latch exclusively; handles from FetchShared hold it shared and must not
// modify the page.
//
// Release ends a handle's life. The Handle belongs to the frame, not to
// the caller: every exclusive holder of a frame gets the same *Handle, all
// its shared holders share another, and once the frame is evicted and
// refilled both name the new page. Using a handle after its Release
// therefore reads — or unlatches — whoever holds the frame next.
type Handle struct {
	shard  *shard
	idx    int
	pid    uint64
	shared bool
}

// PID returns the page identifier.
func (h *Handle) PID() uint64 { return h.pid }

// Data returns the buffered page image. It remains valid until Release.
func (h *Handle) Data() []byte { return h.shard.frames[h.idx].data }

// Tracker returns the change tracker of the current residency. It is the
// frame's own and, like Data, valid until Release: the frame's next
// residency re-initialises it for another page.
func (h *Handle) Tracker() *core.Tracker { return &h.shard.frames[h.idx].tracker }

// MarkDirty flags the page as modified. It requires an exclusive handle.
// The first MarkDirty of a residency stamps the frame's recLSN from the
// pool's LSN source (see SetLSNSource).
func (h *Handle) MarkDirty() {
	s := h.shard
	s.mu.Lock()
	f := &s.frames[h.idx]
	if !f.dirty {
		f.dirty = true
		f.recLSN = s.stampLocked()
	}
	s.mu.Unlock()
}

// stampLocked returns the current recLSN stamp. The caller holds the
// shard mutex.
func (s *shard) stampLocked() uint64 {
	if s.lsn == nil {
		return 0
	}
	return s.lsn()
}

// Release drops the frame latch and unpins the page. The latch is released
// before the pin so that, under the shard mutex, pin == 0 implies the
// latch is free.
func (h *Handle) Release() {
	f := &h.shard.frames[h.idx]
	if h.shared {
		f.latch.RUnlock()
	} else {
		f.latch.Unlock()
	}
	h.shard.mu.Lock()
	if f.pin > 0 {
		f.pin--
	}
	h.shard.mu.Unlock()
}

// Fetch pins the page with identifier pid, loading it through the PageIO if
// necessary, and returns it exclusively latched.
func (p *Pool) Fetch(pid uint64) (*Handle, error) { return p.fetch(pid, false) }

// FetchShared is Fetch with a shared latch: any number of readers may hold
// the same page concurrently. The returned handle must not be used to
// modify the page.
func (p *Pool) FetchShared(pid uint64) (*Handle, error) { return p.fetch(pid, true) }

// claimFrame acquires the shard mutex and claims a frame for a new
// residency, backing off while every frame is transiently pinned. Each
// attempt first re-runs lookup (under the mutex): if it reports the page
// is already cached, claimFrame stops with hit == true. On success (hit
// or claimed victim index) the shard mutex is HELD; on error it is
// released.
func (s *shard) claimFrame(lookup func() (int, bool)) (idx int, hit bool, err error) {
	s.mu.Lock()
	for attempt := 0; ; attempt++ {
		if i, ok := lookup(); ok {
			return i, true, nil
		}
		i, err := s.victimLocked()
		if err == nil {
			return i, false, nil
		}
		s.mu.Unlock()
		if !errors.Is(err, ErrNoFrames) || attempt >= victimRetries {
			return 0, false, err
		}
		victimBackoff(attempt)
		s.mu.Lock()
	}
}

func (p *Pool) fetch(pid uint64, shared bool) (*Handle, error) {
	s := p.shardFor(pid)
	idx, hit, err := s.claimFrame(func() (int, bool) {
		i, ok := s.table[pid]
		return i, ok
	})
	if err != nil {
		return nil, err
	}
	if hit {
		f := &s.frames[idx]
		f.pin++
		s.touchLocked(pid)
		s.stats.Hits++
		s.mu.Unlock()
		// The pin keeps the frame resident; block on the latch outside
		// the shard mutex so unrelated pages of the shard stay
		// accessible.
		lockLatch(f, shared)
		return f.handle(shared), nil
	}
	s.stats.Misses++
	f := s.residentLocked(idx, pid, false)
	// The load happens under the shard mutex: it keeps the miss-then-load
	// path atomic with respect to concurrent fetches of the same page, and
	// only serialises this shard — misses on other shards proceed in
	// parallel.
	if err := s.io.LoadPageInto(pid, f.data, &f.tracker); err != nil {
		s.vacateLocked(f)
		s.mu.Unlock()
		return nil, err
	}
	s.touchLocked(pid)
	s.mu.Unlock()
	lockLatch(f, shared)
	return f.handle(shared), nil
}

func lockLatch(f *frame, shared bool) {
	if shared {
		f.latch.RLock()
	} else {
		f.latch.Lock()
	}
}

// Create pins a frame for a brand-new page that does not exist on storage
// yet. init formats the frame contents and initialises the frame's tracker
// for the page (typically marked out-of-place, since the first write of a
// new page cannot be an append). The handle is exclusively latched.
func (p *Pool) Create(pid uint64, init func(buf []byte, t *core.Tracker) error) (*Handle, error) {
	s := p.shardFor(pid)
	idx, hit, err := s.claimFrame(func() (int, bool) {
		i, ok := s.table[pid]
		return i, ok
	})
	if err != nil {
		return nil, err
	}
	if hit {
		s.mu.Unlock()
		return nil, fmt.Errorf("buffer: page %d already cached", pid)
	}
	f := s.residentLocked(idx, pid, true)
	if err := init(f.data, &f.tracker); err != nil {
		s.vacateLocked(f)
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Unlock()
	lockLatch(f, false)
	return &f.excl, nil
}

// victimLocked returns the index of a free frame, evicting if necessary the
// least referenced of the first victimWindow unpinned frames from the hand
// (ties to the first met); the hand moves past the victim. The caller holds
// the shard mutex.
func (s *shard) victimLocked() (int, error) {
	// Prefer an unused frame.
	for i := range s.frames {
		if !s.frames[i].valid {
			return i, nil
		}
	}
	victim, low := -1, uint64(countMax+1)
	for i, seen := 0, 0; i < len(s.frames) && seen < victimWindow; i++ {
		idx := (s.hand + i) % len(s.frames)
		if f := &s.frames[idx]; f.pin == 0 {
			seen++
			if c := s.countLocked(f.pid); c < low {
				victim, low = idx, c
			}
		}
	}
	if victim < 0 {
		return 0, ErrNoFrames
	}
	s.hand = (victim + 1) % len(s.frames)
	if err := s.evictLocked(victim); err != nil {
		return 0, err
	}
	return victim, nil
}

// evictLocked writes back a dirty victim and removes it from the table.
// The caller holds the shard mutex; the victim is unpinned, so its latch
// is free and nobody can observe the page while it is written back.
func (s *shard) evictLocked(idx int) error {
	f := &s.frames[idx]
	s.stats.Evictions++
	if f.dirty {
		s.stats.DirtyEvictions++
		if err := s.io.StorePage(f.pid, f.data, &f.tracker); err != nil {
			return fmt.Errorf("buffer: evicting page %d: %w", f.pid, err)
		}
	}
	delete(s.table, f.pid)
	f.valid = false
	f.dirty = false
	f.recLSN = 0
	return nil
}

// FlushPage writes a cached page back to storage if it is dirty. The page
// stays cached.
func (p *Pool) FlushPage(pid uint64) error {
	s := p.shardFor(pid)
	s.mu.Lock()
	idx, ok := s.table[pid]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNotCached, pid)
	}
	s.frames[idx].pin++
	s.mu.Unlock()
	return s.flushFrame(idx)
}

// flushFrame writes one pinned frame back if it is dirty, then unpins it.
// The caller must have incremented the frame's pin count; flushFrame takes
// the frame latch so the write-back never observes a half-applied update.
func (s *shard) flushFrame(idx int) error {
	f := &s.frames[idx]
	f.latch.Lock()
	err := s.storeLatched(f)
	// Mirror Handle.Release: drop the latch before the pin so that, under
	// the shard mutex, pin == 0 implies the latch is free.
	f.latch.Unlock()
	s.mu.Lock()
	if f.pin > 0 {
		f.pin--
	}
	s.mu.Unlock()
	return err
}

// storeLatched writes a pinned frame back if it is dirty. The caller holds
// the frame latch exclusively, which keeps the page image stable; the shard
// mutex is not held across the store so unrelated pages stay accessible.
func (s *shard) storeLatched(f *frame) error {
	s.mu.Lock()
	dirty := f.valid && f.dirty
	s.mu.Unlock()
	if !dirty {
		return nil
	}
	if err := s.io.StorePage(f.pid, f.data, &f.tracker); err != nil {
		return err
	}
	s.mu.Lock()
	f.dirty = false
	f.recLSN = 0
	s.stats.Flushes++
	s.mu.Unlock()
	return nil
}

// Flush writes the page back to storage if it is dirty, while the handle
// keeps it pinned and latched — no eviction can slip between a modification
// and its write-back. It requires an exclusive handle.
func (h *Handle) Flush() error {
	return h.shard.storeLatched(&h.shard.frames[h.idx])
}

// FlushAll writes every dirty cached page back to storage.
func (p *Pool) FlushAll() error {
	for _, s := range p.shards {
		for idx := range s.frames {
			s.mu.Lock()
			if !s.frames[idx].valid {
				s.mu.Unlock()
				continue
			}
			s.frames[idx].pin++
			s.mu.Unlock()
			if err := s.flushFrame(idx); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetLSNSource installs fn as the recLSN stamp source: it is sampled
// (under the shard mutex) whenever a frame transitions from clean to
// dirty, typically wired to the WAL's next-LSN counter. It must be set
// before the pool is shared between goroutines.
func (p *Pool) SetLSNSource(fn func() uint64) {
	for _, s := range p.shards {
		s.lsn = fn
	}
}

// DirtySnapshot returns the identifiers of all currently dirty pages,
// ordered by recLSN ascending (oldest first). It is the fuzzy
// checkpoint's work list: flushing in this order retires the oldest log
// dependencies first. The snapshot is advisory — pages may be dirtied or
// cleaned concurrently — which is exactly what makes the checkpoint
// fuzzy.
func (p *Pool) DirtySnapshot() []uint64 {
	type entry struct {
		pid    uint64
		recLSN uint64
	}
	var dirty []entry
	for _, s := range p.shards {
		s.mu.Lock()
		for i := range s.frames {
			f := &s.frames[i]
			if f.valid && f.dirty {
				dirty = append(dirty, entry{pid: f.pid, recLSN: f.recLSN})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].recLSN < dirty[j].recLSN })
	out := make([]uint64, len(dirty))
	for i, e := range dirty {
		out[i] = e.pid
	}
	return out
}
