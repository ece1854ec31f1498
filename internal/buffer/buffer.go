// Package buffer implements the database buffer pool.
//
// The pool caches fixed-size database pages, pins them for access, and
// evicts the cheapest of the frames near one pool-wide clock hand. Its page
// table is partitioned into independently-latched shards — pages are hashed
// by identifier onto a shard, and each shard has its own mutex and hash
// table — so hits on different pages proceed in parallel. The frames, the
// hand and the reference counts belong to the whole pool: a miss may evict
// a frame holding a page of any shard. Every frame carries a read/write
// latch that serialises access to the page image: Fetch returns the page
// exclusively latched, FetchShared allows any number of concurrent readers.
//
// Replacement is frequency-aware and priced. The pool keeps a saturating
// 4-bit count of references per page identifier — of every page it has
// ever held, resident or not: identifiers are dense, so that is one flat
// array, sixteen counts to a word, where 2Q or ARC keep ghost lists. A
// reference is a fetch, less the kind that predicts no reuse, which only
// the caller can tell (LRU-K's correlated references): a heap file that
// moves on from a filled page zeroes the fill's count with Forget. Every
// agePeriod × frames references all counts are halved. The victim is the cheapest of victimWindow unpinned
// frames sampled from the hand, priced count + 1, times wholePageWeight
// when its write-back would be a whole-page program. A page that comes
// back after an eviction is therefore still known to be hot, which
// second-chance CLOCK (refClock in the tests) and counts on resident
// frames alone (GCLOCK) cannot know. docs/ARCHITECTURE.md has the trace
// replays that chose the constants, the ablation that doubled the period,
// the derivation of the weight, and the one pattern that pays for the
// history: uniform access.
//
// The pool's part in In-Place Appends is still to carry the tracker: the
// buffer always holds the up-to-date page image and all updates happen in
// place as usual; every frame carries a core.Tracker fed by the page layer,
// and dirty evictions hand both the page image and the tracker to the
// storage manager, which decides between an in-place append and a
// traditional out-of-place write. The one addition is a question the pool
// asks the tracker for victim choice — is this frame still
// append-eligible? — when the frame's exclusive latch is released, the last
// moment the answer can change before the frame is unpinned.
//
// One invariant: a page is in the table exactly while its frame holds the
// page's valid image. A miss unmaps its victim when it claims the frame and
// maps the new page only once it is loaded; a frame whose load failed holds
// no page, and is the cheapest victim there is.
//
// Locks, outermost first:
//   - Pool.mu, the replacement lock, is held by a miss from start to
//     finish: re-check the table, claim the victim, write it back, load or
//     format the new page, map it. It guards the hand, the never-used
//     frames, the growth of the count array and every frame's mapping.
//     FlushPage, FlushAll and DirtySnapshot find their frames under it, so
//     none of them gets past a write-back in flight. Nothing waits on a
//     latch under it.
//   - shard.mu guards the shard's table and the header of every frame
//     mapped to one of its pages: a pin rises only under it; dirty and
//     recLSN change under it and the frame's exclusive latch.
//   - frame.latch guards the page image and the tracker.
//
// A hit takes only its shard mutex, to find and pin the frame, and then the
// latch: a pinned frame cannot be claimed, so the latch it waits for is its
// page's. Pins, weights and counts are atomic, so victim choice reads them
// without a shard mutex and claims its victim under that one frame's.
package buffer

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/core"
	"ipa/internal/stat"
)

// Errors returned by the pool.
var (
	// ErrNoFrames is returned when every frame of the pool stays pinned for
	// longer than the retry budget and no victim can be evicted.
	ErrNoFrames = errors.New("buffer: all frames pinned")
	// ErrNotCached is returned by FlushPage for pages not in the pool.
	ErrNotCached = errors.New("buffer: page not cached")
)

// Pins are held only for the duration of one page operation, so a pool
// whose frames are all pinned usually frees one within microseconds. Fetch
// and Create therefore retry briefly before surfacing ErrNoFrames — without
// this, more concurrent page operations than frames would be a hard error
// rather than a wait. The budget is generous enough for transient pile-ups
// and still bounded so leaked handles fail loudly.
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
// returning. Implementations must be safe for concurrent use — flushes
// store while a miss loads or stores — and must not call back into the
// pool: a miss calls them under the replacement lock.
type PageIO interface {
	PageSize() int
	LoadPageInto(pid uint64, buf []byte, t *core.Tracker) error
	StorePage(pid uint64, buf []byte, t *core.Tracker) error
}

// Stats counts buffer pool events. Every shard keeps its own as its live
// counter set, bumped atomically, for the pages it maps; Pool.Stats sums
// them.
type Stats struct {
	BufferHits           uint64
	BufferMisses         uint64
	BufferEvictions      uint64
	BufferDirtyEvictions uint64 // evictions that wrote the page back
	BufferFlushes        uint64 // write-backs that left the page cached
}

type frame struct {
	// latch serialises access to data and tracker. A goroutine holds
	// or waits on it only while it holds a pin, and Release drops the latch
	// before the pin, so a frame with pin == 0 has a free latch.
	latch sync.RWMutex
	// pid is the frame's page, and mapped says whether the table maps pid to
	// the frame: whether the frame holds the page. Both change only under the
	// replacement lock, and a miss sets them under pid's shard mutex as it
	// maps the frame, so a pin also suffices to read pid.
	pid    uint64
	mapped bool
	// pin counts the frame's holders. It rises only under pid's shard mutex
	// while the frame is mapped, and as a miss maps it; it may fall anywhere.
	pin  atomic.Int32
	data []byte
	// tracker belongs to the frame like data does: every residency
	// re-initialises it in place, so a miss allocates none.
	tracker core.Tracker
	// weight prices the frame's eviction (reweigh). It is set whenever the
	// frame's state may have changed — on the release of its exclusive
	// latch, as it is mapped, after a write-back — so a mapped, unpinned
	// frame's weight is current and victim choice reads no tracker.
	weight atomic.Uint32
	// dirty and recLSN change under both pid's shard mutex and the exclusive
	// latch, so either suffices to read them, or while the frame is unmapped
	// under the replacement lock. recLSN is the log's next LSN
	// when the frame last went from clean to dirty; Tx.UpdateAt logs, then
	// marks, so it is one past the dirtying record (three past with a
	// secondary move), and a cut derived from it must first stamp at or below
	// that record. Fuzzy checkpoints flush dirty pages in recLSN order so the
	// WAL truncation cut can advance past the oldest one.
	dirty  bool
	recLSN uint64
	// excl and shrd are the two handles the frame ever hands out, so a
	// fetch allocates nothing. Their pid follows the frame's.
	excl, shrd Handle
}

// handle returns the frame's exclusive or shared handle.
func (f *frame) handle(shared bool) *Handle {
	if shared {
		return &f.shrd
	}
	return &f.excl
}

// reweigh sets the frame's weight from its state: wholePageWeight if its
// write-back would be a whole-page program — it is dirty and its tracker is
// not append-eligible, which covers every dirty frame on the traditional
// path — and 1 if it is clean or would leave as a delta append. The caller
// holds the exclusive latch, or the frame unmapped. Most releases leave the
// weight as it was, and then reweigh writes nothing.
func (f *frame) reweigh() {
	w := uint32(1)
	if f.dirty && !f.tracker.Eligible() {
		w = wholePageWeight
	}
	if f.weight.Load() != w {
		f.weight.Store(w)
	}
}

func lockLatch(f *frame, shared bool) {
	if shared {
		f.latch.RLock()
	} else {
		f.latch.Lock()
	}
}

func unlockLatch(f *frame, shared bool) {
	if shared {
		f.latch.RUnlock()
	} else {
		f.latch.Unlock()
	}
}

// shard is one independently-latched partition of the page table.
type shard struct {
	mu sync.Mutex
	// table maps a page id to its frame index, or to -1 once the page has
	// left the pool: a key is never deleted, because deletes leave
	// tombstones that make the map regrow at times its hash seed decides,
	// so a run's allocations would not repeat.
	table map[uint64]int
	stats Stats
}

// The replacement policy's constants: counts saturate at countMax and are
// halved every agePeriod references per frame of the pool (TinyLFU's 10
// until updates counted once and filled pages were forgotten; 20 since).
const (
	countMax     = 15
	agePeriod    = 20
	victimWindow = 16 // unpinned frames sampled from the hand a victim is chosen among
)

// wholePageWeight prices a dirty frame whose write-back would be a
// whole-page program against a frame that is clean or would leave as a
// delta append. Under flashdev.DefaultLatencyModel a pSLC read of an 8 KiB
// page with its transfer costs 95 µs and a page program 425 µs. Evicting
// any frame costs its page's next fetch a read; a reference to a frame
// bound for a whole-page program also, at a ½ update share, costs half a
// program on the way out, so one more reference to it is worth
// (95 + ½·425)/95 ≈ 3.2 reads against one read for any other frame.
const wholePageWeight = 3

// countBlock packs the 4-bit reference counts of blockWords × 16
// consecutive page identifiers sixteen to a word. The pool's count array
// is a list of blocks that grows by whole blocks, the first time a page
// beyond it is loaded or created — while the database is built — so its
// words never move and a hit updates one in place.
type countBlock [blockWords]atomic.Uint64

const blockWords = 64

// Pool is a fixed-capacity page cache with a sharded page table.
type Pool struct {
	io     PageIO
	frames []frame
	shards []shard
	mask   uint64        // len(shards) - 1
	lsn    func() uint64 // source of recLSN stamps (nil = always 0)

	// mu is the replacement lock. It is held by every miss and guards the
	// hand, fresh — frames [fresh:] were never used — the growth of counts
	// and every frame's pid and mapped.
	mu    sync.Mutex
	hand  int
	fresh int
	// step is the stride at which the victim window samples the frames: the
	// least at or above frames/victimWindow that is coprime with frames, so
	// the window spreads over the whole pool and the walk still meets every
	// frame. Sixteen adjacent frames would let a run of hot pages — loaded
	// together, before a scan — fill the window and be evicted one by one.
	step int
	// counts holds every page's reference count; untilHalving counts down
	// the references left before the next halving.
	counts       atomic.Pointer[[]*countBlock]
	untilHalving atomic.Int64
}

// Sharding defaults: shards are a power of two so the pid hash reduces to a
// mask, each shard maps at least minFramesPerShard frames' worth of pages so
// small pools (unit tests, tiny devices) degenerate to a single shard.
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

// New creates a pool with nframes frames and an automatically chosen
// number of page-table shards.
func New(io PageIO, nframes int) (*Pool, error) {
	return NewSharded(io, nframes, defaultShards(nframes))
}

// NewSharded creates a pool with nframes frames and nshards
// independently-latched page-table shards, a power of two.
func NewSharded(io PageIO, nframes, nshards int) (*Pool, error) {
	if nframes <= 0 {
		return nil, fmt.Errorf("buffer: pool needs at least one frame, got %d", nframes)
	}
	if nshards <= 0 || nshards > nframes || nshards&(nshards-1) != 0 {
		return nil, fmt.Errorf("buffer: shard count %d invalid for %d frames", nshards, nframes)
	}
	p := &Pool{io: io, frames: make([]frame, nframes), shards: make([]shard, nshards), mask: uint64(nshards - 1)}
	p.untilHalving.Store(agePeriod * int64(nframes))
	p.step = max(nframes/victimWindow, 1)
	for gcd(p.step, nframes) != 1 {
		p.step++
	}
	for i := range p.shards {
		p.shards[i].table = make(map[uint64]int, nframes/nshards+1)
	}
	size := io.PageSize()
	for i := range p.frames {
		f := &p.frames[i]
		f.data = make([]byte, size)
		f.excl = Handle{pool: p, idx: i}
		f.shrd = Handle{pool: p, idx: i, shared: true}
	}
	p.counts.Store(new([]*countBlock))
	return p, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// shardFor maps a page identifier onto its shard. Page identifiers are
// allocated sequentially, so a plain modulo — a mask — spreads neighbouring
// pages across shards and scans fan out over all partitions.
func (p *Pool) shardFor(pid uint64) *shard {
	return &p.shards[pid&p.mask]
}

// Capacity returns the total number of frames.
func (p *Pool) Capacity() int { return len(p.frames) }

// Shards returns the number of independently-latched page-table partitions.
func (p *Pool) Shards() int { return len(p.shards) }

// Stats returns a snapshot of the pool counters summed over all shards.
func (p *Pool) Stats() Stats {
	var out Stats
	for i := range p.shards {
		out = stat.Add(out, stat.Load(&p.shards[i].stats))
	}
	return out
}

// word returns the word holding pid's count and the count's shift in it,
// or nil if the array does not reach pid.
func (p *Pool) word(pid uint64) (*atomic.Uint64, uint64) {
	n, blocks := pid>>4, *p.counts.Load()
	if b := n / blockWords; b < uint64(len(blocks)) {
		return &blocks[b][n%blockWords], pid & 15 * 4
	}
	return nil, 0
}

// count returns pid's reference count; a page never fetched has 0.
func (p *Pool) count(pid uint64) uint64 {
	if w, shift := p.word(pid); w != nil {
		return w.Load() >> shift & countMax
	}
	return 0
}

// cover grows the count array to reach pid, once pid is loaded or created:
// a failed load counts nothing, so asking for page ids that do not exist
// cannot grow it. The caller holds the replacement lock.
func (p *Pool) cover(pid uint64) {
	if w, _ := p.word(pid); w != nil {
		return
	}
	old := *p.counts.Load()
	n := int(pid>>4/blockWords) + 1
	if n <= len(old) {
		return
	}
	blocks := make([]*countBlock, n)
	copy(blocks, old)
	for i := len(old); i < n; i++ {
		blocks[i] = new(countBlock)
	}
	p.counts.Store(&blocks)
}

// touch counts one reference to pid — a hit, or a miss once the page is
// loaded, not a Create — and, when the period is up, halves every count,
// word-parallel. pid is resident, so the array reaches
// it. The reference that ends a period is the one whose countdown reads 0,
// or a multiple of the period below it while an earlier halving is still
// running.
func (p *Pool) touch(pid uint64) {
	w, shift := p.word(pid)
	for {
		c := w.Load()
		if c>>shift&countMax == countMax || w.CompareAndSwap(c, c+1<<shift) {
			break
		}
	}
	period := agePeriod * int64(len(p.frames))
	if n := p.untilHalving.Add(-1); n > 0 || n%period != 0 {
		return
	}
	p.untilHalving.Add(period)
	for _, b := range *p.counts.Load() {
		for i := range b {
			for {
				c := b[i].Load()
				if b[i].CompareAndSwap(c, c>>1&0x7777777777777777) {
					break
				}
			}
		}
	}
}

// Forget zeroes pid's count: its fetches so far were one burst that will
// not recur — an append-only page's while it filled — and predict no reuse.
// A page beyond the count array has no count to zero.
func (p *Pool) Forget(pid uint64) {
	w, shift := p.word(pid)
	if w == nil {
		return
	}
	for {
		c := w.Load()
		if w.CompareAndSwap(c, c&^(countMax<<shift)) {
			return
		}
	}
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
	pool   *Pool
	idx    int
	pid    uint64
	shared bool
}

func (h *Handle) frame() *frame { return &h.pool.frames[h.idx] }

// PID returns the page identifier.
func (h *Handle) PID() uint64 { return h.pid }

// Data returns the buffered page image. It remains valid until Release.
func (h *Handle) Data() []byte { return h.frame().data }

// Tracker returns the change tracker of the current residency. It is the
// frame's own and, like Data, valid until Release: the frame's next
// residency re-initialises it for another page.
func (h *Handle) Tracker() *core.Tracker { return &h.frame().tracker }

// MarkDirty flags the page as modified. It requires an exclusive handle.
// The first MarkDirty of a residency stamps the frame's recLSN from the
// pool's LSN source (see SetLSNSource).
func (h *Handle) MarkDirty() {
	f, s := h.frame(), h.pool.shardFor(h.pid)
	s.mu.Lock()
	if !f.dirty {
		f.dirty, f.recLSN = true, h.pool.stamp()
	}
	s.mu.Unlock()
}

// stamp returns the current recLSN stamp.
func (p *Pool) stamp() uint64 {
	if p.lsn == nil {
		return 0
	}
	return p.lsn()
}

// Release drops the frame latch and unpins the page. The latch is released
// before the pin, so pin == 0 implies the latch is free.
func (h *Handle) Release() {
	f := h.frame()
	if !h.shared {
		f.reweigh()
	}
	unlockLatch(f, h.shared)
	f.pin.Add(-1)
}

// Fetch pins the page with identifier pid, loading it through the PageIO if
// necessary, and returns it exclusively latched.
func (p *Pool) Fetch(pid uint64) (*Handle, error) { return p.fetch(pid, false) }

// FetchShared is Fetch with a shared latch: any number of readers may hold
// the same page concurrently. The returned handle must not be used to
// modify the page.
func (p *Pool) FetchShared(pid uint64) (*Handle, error) { return p.fetch(pid, true) }

func (p *Pool) fetch(pid uint64, shared bool) (*Handle, error) {
	f, loaded := p.pinned(pid), false
	if f == nil {
		var err error
		if f, loaded, err = p.miss(pid, shared, nil); err != nil {
			return nil, err
		}
	}
	if !loaded {
		// The pin keeps the frame pid's; block on the latch outside every
		// mutex, so other pages stay accessible.
		lockLatch(f, shared)
		atomic.AddUint64(&p.shardFor(pid).stats.BufferHits, 1)
	}
	p.touch(pid)
	return f.handle(shared), nil
}

// pinned returns pid's frame with one pin taken for the caller, or nil if
// pid is not cached.
func (p *Pool) pinned(pid uint64) *frame {
	s := p.shardFor(pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.table[pid]
	if !ok || i < 0 {
		return nil
	}
	f := &p.frames[i]
	f.pin.Add(1)
	return f
}

// Create pins a frame for a brand-new page that does not exist on storage
// yet. init formats the frame contents and initialises the frame's tracker
// for the page (typically marked out-of-place, since the first write of a
// new page cannot be an append). init runs under the replacement lock, like
// every load, and must not call back into the pool. The handle is
// exclusively latched.
func (p *Pool) Create(pid uint64, init func(buf []byte, t *core.Tracker) error) (*Handle, error) {
	f, created, err := p.miss(pid, false, init)
	if err != nil {
		return nil, err
	}
	if !created {
		f.pin.Add(-1)
		return nil, fmt.Errorf("buffer: page %d already cached", pid)
	}
	return &f.excl, nil
}

// miss brings pid into a frame — loaded through the PageIO, or, for Create,
// formatted by init; a created page is dirty from the start — and returns
// the frame pinned and latched as shared asks, with true. If pid arrived
// meanwhile, it returns pid's frame pinned but not latched, with false. It
// holds the replacement lock from start to finish, except while every frame
// is pinned: then it backs off with the lock released and looks again.
func (p *Pool) miss(pid uint64, shared bool, init func([]byte, *core.Tracker) error) (*frame, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, held := 0, false
	for attempt := 0; ; attempt++ {
		if f := p.pinned(pid); f != nil {
			return f, false, nil
		}
		var ok bool
		if idx, held, ok = p.victimLocked(); ok {
			break
		}
		if attempt == victimRetries {
			return nil, false, ErrNoFrames
		}
		p.mu.Unlock()
		victimBackoff(attempt)
		p.mu.Lock()
	}
	if held {
		if err := p.evict(idx); err != nil {
			return nil, false, err
		}
	}
	f := &p.frames[idx]
	var err error
	if init != nil {
		err = init(f.data, &f.tracker)
	} else {
		err = p.io.LoadPageInto(pid, f.data, &f.tracker)
	}
	if err != nil {
		return nil, false, err
	}
	p.cover(pid)
	f.dirty, f.recLSN = init != nil, 0
	if f.dirty {
		f.recLSN = p.stamp()
	}
	f.reweigh()
	// The frame is unmapped, so its latch is free.
	f.pin.Store(1)
	lockLatch(f, shared)
	s := p.shardFor(pid)
	s.mu.Lock()
	s.table[pid] = idx
	f.pid, f.mapped, f.excl.pid, f.shrd.pid = pid, true, pid, pid
	if init == nil {
		atomic.AddUint64(&s.stats.BufferMisses, 1)
	}
	s.mu.Unlock()
	return f, true, nil
}

// victimLocked claims the frame a miss refills and reports whether it holds
// a page: a never-used frame while one is left, else the cheapest of the
// first victimWindow unpinned frames met stepping from the hand by step
// (ties to the first met), priced 0 if it holds no page and its weight ×
// (count + 1) if it does; the hand moves to the frame after it. The caller
// holds the replacement lock.
func (p *Pool) victimLocked() (idx int, held, ok bool) {
	if idx := p.fresh; idx < len(p.frames) {
		p.fresh++
		return idx, false, true
	}
	n := len(p.frames)
	for {
		best, low := -1, uint64(math.MaxUint64)
		for i, seen := 0, 0; i < n && seen < victimWindow; i++ {
			idx := (p.hand + i*p.step) % n
			f := &p.frames[idx]
			if f.pin.Load() != 0 {
				continue
			}
			seen++
			// What evicting f costs, in reads to come.
			c := uint64(0)
			if f.mapped {
				c = uint64(f.weight.Load()) * (p.count(f.pid) + 1)
			}
			if c < low {
				best, low = idx, c
			}
		}
		if best < 0 {
			return 0, false, false
		}
		// best may have been pinned since it was priced; then choose again.
		if held := p.frames[best].mapped; p.claim(best) {
			p.hand = (best + 1) % n
			return best, held, true
		}
	}
}

// claim unmaps frame idx for a miss to refill, unless it is pinned. A pin
// rises only under the shard mutex while the frame is mapped, so once the
// mapping is gone nobody else can pin the frame, and its latch is free. A
// frame that holds no page is never pinned.
func (p *Pool) claim(idx int) bool {
	f := &p.frames[idx]
	if !f.mapped {
		return true
	}
	s := p.shardFor(f.pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.pin.Load() != 0 {
		return false
	}
	s.table[f.pid], f.mapped = -1, false
	return true
}

// evict writes the claimed frame's page back if it is dirty and counts the
// eviction. A write that fails maps the page again, still dirty.
func (p *Pool) evict(idx int) error {
	f := &p.frames[idx]
	s := p.shardFor(f.pid)
	wrote, err := p.store(f, true)
	if err != nil {
		s.mu.Lock()
		s.table[f.pid], f.mapped = idx, true
		s.mu.Unlock()
		return fmt.Errorf("buffer: evicting page %d: %w", f.pid, err)
	}
	atomic.AddUint64(&s.stats.BufferEvictions, 1)
	if wrote {
		atomic.AddUint64(&s.stats.BufferDirtyEvictions, 1)
	}
	return nil
}

// store writes f's page back if it is dirty and reports whether it wrote,
// counting the write as a flush unless it is an eviction's, which evict
// counts. The caller holds the exclusive latch, which keeps the image still
// and — dirty changes only under it — the dirty bit too, or holds the frame
// unmapped under the replacement lock.
func (p *Pool) store(f *frame, evict bool) (bool, error) {
	if !f.dirty {
		return false, nil
	}
	if err := p.io.StorePage(f.pid, f.data, &f.tracker); err != nil {
		return false, err
	}
	s := p.shardFor(f.pid)
	s.mu.Lock()
	f.dirty, f.recLSN = false, 0
	s.mu.Unlock()
	f.reweigh()
	if !evict {
		atomic.AddUint64(&s.stats.BufferFlushes, 1)
	}
	return true, nil
}

// FlushPage writes a cached page back to storage if it is dirty and
// reports whether it wrote; the page stays cached. It looks the page up
// under the replacement lock, so a page whose eviction is writing it back
// is looked up once that write is durable, and is not cached.
func (p *Pool) FlushPage(pid uint64) (bool, error) {
	p.mu.Lock()
	f := p.pinned(pid)
	p.mu.Unlock()
	if f == nil {
		return false, fmt.Errorf("%w: %d", ErrNotCached, pid)
	}
	return p.flushPinned(f)
}

// flushPinned writes a frame the caller pinned back if it is dirty, under
// its exclusive latch so the write-back never observes a half-applied
// update, then unpins it.
func (p *Pool) flushPinned(f *frame) (bool, error) {
	f.latch.Lock()
	wrote, err := p.store(f, false)
	f.latch.Unlock()
	f.pin.Add(-1)
	return wrote, err
}

// Flush writes the page back to storage if it is dirty, while the handle
// keeps it pinned and latched — no eviction can slip between a modification
// and its write-back. It requires an exclusive handle.
func (h *Handle) Flush() error {
	_, err := h.pool.store(h.frame(), false)
	return err
}

// FlushAll writes every dirty cached page back to storage, in frame order.
// It reads each frame's pid under the replacement lock; a frame that holds
// no page is clean.
func (p *Pool) FlushAll() error {
	for i := range p.frames {
		f := &p.frames[i]
		p.mu.Lock()
		s := p.shardFor(f.pid)
		s.mu.Lock()
		dirty := f.dirty
		if dirty {
			f.pin.Add(1)
		}
		s.mu.Unlock()
		p.mu.Unlock()
		if dirty {
			if _, err := p.flushPinned(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetLSNSource installs fn as the recLSN stamp source: it is sampled
// whenever a frame transitions from clean to dirty, typically wired to the
// WAL's next-LSN counter. It must be set before the pool is shared between
// goroutines.
func (p *Pool) SetLSNSource(fn func() uint64) { p.lsn = fn }

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
	p.mu.Lock()
	for i := range p.frames {
		f := &p.frames[i]
		s := p.shardFor(f.pid)
		s.mu.Lock()
		if f.dirty {
			dirty = append(dirty, entry{pid: f.pid, recLSN: f.recLSN})
		}
		s.mu.Unlock()
	}
	p.mu.Unlock()
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].recLSN < dirty[j].recLSN })
	out := make([]uint64, len(dirty))
	for i, e := range dirty {
		out[i] = e.pid
	}
	return out
}
