package buffer

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ipa/internal/core"
)

// countIO is a PageIO that moves no bytes and plays the storage manager's
// part in choosing a write path: pages [0, pages) exist, each carries the
// delta records appended to it since its last whole-page write, a load
// hands the tracker that number, and a store appends when the tracker is
// append-eligible and writes the whole page otherwise. It allocates
// nothing while no page is updated.
type countIO struct {
	pages           uint64
	loads, stores   int
	appends, wholes int
	existing        map[uint64]int
}

func (c *countIO) PageSize() int { return 64 }

func (c *countIO) LoadPageInto(pid uint64, buf []byte, t *core.Tracker) error {
	if pid >= c.pages {
		return errors.New("no such page")
	}
	c.loads++
	t.Init(core.Scheme{N: 2, M: 4}, len(buf), c.existing[pid])
	return nil
}

func (c *countIO) StorePage(pid uint64, buf []byte, t *core.Tracker) error {
	c.stores++
	switch {
	case !t.OutOfPlace() && !t.Dirty(): // every change reverted
		return nil
	case t.Eligible():
		c.appends++
		c.setExisting(pid, t.Existing()+t.Records())
	default:
		c.wholes++
		c.setExisting(pid, 0)
	}
	t.Reset(c.existing[pid])
	return nil
}

func (c *countIO) setExisting(pid uint64, existing int) {
	if c.existing == nil {
		c.existing = map[uint64]int{}
	}
	c.existing[pid] = existing
}

// refClock is the second-chance CLOCK the pool ran before it counted
// references, over the shards it then had: a reference bit per frame, set
// by every fetch, and a hand that clears bits until it meets a clear one.
// It is what the policy tests count misses against.
type refClock struct {
	shards []refShard
}

type refShard struct {
	pids  []uint64
	ref   []bool
	table map[uint64]int
	hand  int
}

func newRefClock(frames int) *refClock {
	c := &refClock{shards: make([]refShard, defaultShards(frames))}
	for i := range c.shards {
		c.shards[i] = refShard{ref: make([]bool, frames/len(c.shards)), table: map[uint64]int{}}
	}
	return c
}

// fetch reports whether pid missed.
func (c *refClock) fetch(pid uint64) bool {
	s := &c.shards[pid%uint64(len(c.shards))]
	if i, ok := s.table[pid]; ok {
		s.ref[i] = true
		return false
	}
	if len(s.pids) < len(s.ref) { // an unused frame
		s.table[pid] = len(s.pids)
		s.ref[len(s.pids)] = true
		s.pids = append(s.pids, pid)
		return true
	}
	for {
		i := s.hand
		s.hand = (s.hand + 1) % len(s.ref)
		if s.ref[i] {
			s.ref[i] = false
			continue
		}
		delete(s.table, s.pids[i])
		s.pids[i], s.ref[i], s.table[pid] = pid, true, i
		return true
	}
}

// refCount is the victim rule the pool ran before it priced write-backs and
// before one clock covered it: per shard, a hand, 4-bit counts of the
// shard's pages halved every agePeriod fetches per frame of the shard, and
// the lowest count among the first victimWindow frames from the hand (ties
// to the first met), whatever its write-back costs. Its frames carry
// trackers over a PageIO of their own, so its write-backs are counted as the
// pool's are.
type refCount struct {
	io     PageIO
	shards []refCountShard
}

type refCountShard struct {
	frames        []refFrame
	table         map[uint64]int
	counts        map[uint64]uint64
	hand, fetches int
}

type refFrame struct {
	pid     uint64
	dirty   bool
	data    []byte
	tracker core.Tracker
}

func newRefCount(io PageIO, frames int) *refCount {
	r := &refCount{io: io, shards: make([]refCountShard, defaultShards(frames))}
	for i := range r.shards {
		r.shards[i] = refCountShard{
			frames: make([]refFrame, 0, frames/len(r.shards)),
			table:  map[uint64]int{},
			counts: map[uint64]uint64{},
		}
	}
	return r
}

// fetch returns pid's frame, loading the page into a free frame of its
// shard or into the shard's victim.
func (r *refCount) fetch(pid uint64) (*refFrame, error) {
	s := &r.shards[pid%uint64(len(r.shards))]
	defer s.touch(pid)
	if i, ok := s.table[pid]; ok {
		return &s.frames[i], nil
	}
	idx := len(s.frames)
	if idx < cap(s.frames) {
		s.frames = append(s.frames, refFrame{data: make([]byte, r.io.PageSize())})
	} else {
		low := uint64(countMax + 1)
		for i := 0; i < min(victimWindow, len(s.frames)); i++ {
			j := (s.hand + i) % len(s.frames)
			if c := s.counts[s.frames[j].pid]; c < low {
				idx, low = j, c
			}
		}
		s.hand = (idx + 1) % len(s.frames)
		f := &s.frames[idx]
		if f.dirty {
			if err := r.io.StorePage(f.pid, f.data, &f.tracker); err != nil {
				return nil, err
			}
		}
		delete(s.table, f.pid)
	}
	f := &s.frames[idx]
	f.pid, f.dirty, s.table[pid] = pid, false, idx
	return f, r.io.LoadPageInto(pid, f.data, &f.tracker)
}

func (s *refCountShard) touch(pid uint64) {
	s.counts[pid] = min(s.counts[pid]+1, countMax)
	if s.fetches++; s.fetches >= agePeriod*cap(s.frames) {
		s.fetches = 0
		for k, c := range s.counts {
			s.counts[k] = c / 2
		}
	}
}

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta; math/rand's
// generator cannot do theta < 1.
type zipf struct {
	cdf []float64
	rnd *rand.Rand
}

func newZipf(n int, theta float64, seed int64) *zipf {
	z := &zipf{cdf: make([]float64, n), rnd: rand.New(rand.NewSource(seed))}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = sum
	}
	return z
}

func (z *zipf) next() int {
	return sort.SearchFloat64s(z.cdf, z.rnd.Float64()*z.cdf[len(z.cdf)-1])
}

const (
	policyFrames = 128 // flash_rw's pool
	policyPages  = 8 * policyFrames
)

func newPolicyPool(t testing.TB, pages uint64, frames int) (*Pool, *countIO) {
	t.Helper()
	io := &countIO{pages: pages}
	pool, err := New(io, frames)
	if err != nil {
		t.Fatal(err)
	}
	return pool, io
}

func mustFetch(t testing.TB, p *Pool, pid uint64) {
	t.Helper()
	h, err := p.Fetch(pid)
	if err != nil {
		t.Fatalf("Fetch(%d): %v", pid, err)
	}
	h.Release()
}

// replay fetches n pages drawn by next from the pool and from a refClock of
// its size and returns both miss counts.
func replay(t *testing.T, n int, next func() uint64) (pool, clock int) {
	p, io := newPolicyPool(t, policyPages, policyFrames)
	ref := newRefClock(policyFrames)
	for i := 0; i < n; i++ {
		pid := next()
		mustFetch(t, p, pid)
		if ref.fetch(pid) {
			clock++
		}
	}
	return io.loads, clock
}

// TestSkewedAccessMissesLessThanClock is the reason the policy exists:
// flash_rw's access pattern — zipfian, θ = 0.99, hot pages scattered over a
// table eight times the pool — misses at least a tenth less often than under
// second-chance.
func TestSkewedAccessMissesLessThanClock(t *testing.T) {
	z, where := newZipf(policyPages, 0.99, 1), rand.New(rand.NewSource(2)).Perm(policyPages)
	pool, clock := replay(t, 200000, func() uint64 { return uint64(where[z.next()]) })
	t.Logf("zipfian: %d misses, second-chance %d (%.3f×)", pool, clock, float64(pool)/float64(clock))
	if float64(pool) > 0.90*float64(clock) {
		t.Fatalf("zipfian θ=0.99 over 8× pool: %d misses against second-chance's %d, want ≤ 0.90×", pool, clock)
	}
}

// TestUniformAccessCostsLittle bounds what the history costs where it cannot
// help: on uniform access nothing but recency is worth keeping (TPC-B).
func TestUniformAccessCostsLittle(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	pool, clock := replay(t, 200000, func() uint64 { return uint64(rnd.Intn(policyPages)) })
	t.Logf("uniform: %d misses, second-chance %d (%.3f×)", pool, clock, float64(pool)/float64(clock))
	if float64(pool) > 1.03*float64(clock) {
		t.Fatalf("uniform over 8× pool: %d misses against second-chance's %d, want ≤ 1.03×", pool, clock)
	}
}

// TestPricedVictimsWriteFewerWholePages is the reason the price exists:
// flash_rw's pattern — zipfian, θ = 0.99, over eight times the pool, half
// the fetches four-byte updates — ends in at least a twentieth fewer
// whole-page writes than under refCount, the parent's rule, for at most 2%
// more misses. Each update is one delta record of the 2×4 scheme, so a
// page's third record of a residency, or its first once two are on Flash,
// makes its write-back a whole-page program.
func TestPricedVictimsWriteFewerWholePages(t *testing.T) {
	z, where := newZipf(policyPages, 0.99, 8), rand.New(rand.NewSource(9)).Perm(policyPages)
	rnd := rand.New(rand.NewSource(10))
	p, pio := newPolicyPool(t, policyPages, policyFrames)
	rio := &countIO{pages: policyPages}
	ref := newRefCount(rio, policyFrames)
	update := func(data []byte, tr *core.Tracker, off int, val []byte) {
		tr.RecordWrite(off, data[off:off+len(val)], val)
		copy(data[off:], val)
	}
	var val [4]byte
	for i := 0; i < 200000; i++ {
		pid, write, off := uint64(where[z.next()]), rnd.Intn(2) == 0, 4*rnd.Intn(16)
		rnd.Read(val[:])
		h, err := p.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ref.fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if write {
			update(h.Data(), h.Tracker(), off, val[:])
			h.MarkDirty()
			update(f.data, &f.tracker, off, val[:])
			f.dirty = true
		}
		h.Release()
	}
	t.Logf("pool: %d misses, %d whole-page writes, %d appends; refCount: %d, %d, %d",
		pio.loads, pio.wholes, pio.appends, rio.loads, rio.wholes, rio.appends)
	if float64(pio.wholes) > 0.95*float64(rio.wholes) {
		t.Errorf("%d whole-page writes against refCount's %d, want ≤ 0.95×", pio.wholes, rio.wholes)
	}
	if float64(pio.loads) > 1.02*float64(rio.loads) {
		t.Errorf("%d misses against refCount's %d, want ≤ 1.02×", pio.loads, rio.loads)
	}
}

// TestHotPagesOfOneShardStayResident: the clock covers the pool, not the
// missing page's shard. A hot set four times a shard's share of the
// frames, every page of it hashing to one shard, stays resident while a
// scan over the other shards' pages comes and goes.
func TestHotPagesOfOneShardStayResident(t *testing.T) {
	p, io := newPolicyPool(t, 64*policyPages, policyFrames)
	shards := uint64(p.Shards())
	hot := make([]uint64, 4*policyFrames/int(shards))
	for i := range hot {
		hot[i] = uint64(i) * shards
	}
	cold := uint64(0)
	round := func() {
		for _, pid := range hot {
			mustFetch(t, p, pid)
		}
		for i := 0; i < policyFrames; i++ {
			if cold++; cold%shards == 0 {
				cold++
			}
			mustFetch(t, p, cold)
		}
	}
	for i := 0; i < 10; i++ {
		round()
	}
	loads := io.loads
	for i := 0; i < 10; i++ {
		round()
	}
	if missed := io.loads - loads - 10*policyFrames; missed != 0 {
		t.Fatalf("%d fetches of %d hot pages of one shard missed over ten rounds of a scan of the others", missed, len(hot))
	}
}

// TestScanLeavesHotSetResident: one pass over ten pools' worth of cold pages
// evicts cold pages, not a hot set of half the pool.
func TestScanLeavesHotSetResident(t *testing.T) {
	const hot = policyFrames / 2
	p, _ := newPolicyPool(t, hot+10*policyFrames, policyFrames)
	for round := 0; round < 8; round++ {
		for pid := uint64(0); pid < hot; pid++ {
			mustFetch(t, p, pid)
		}
	}
	for pid := uint64(hot); pid < hot+10*policyFrames; pid++ {
		mustFetch(t, p, pid)
	}
	for pid := uint64(0); pid < hot; pid++ {
		if !cached(p, pid) {
			t.Fatalf("hot page %d evicted by a scan", pid)
		}
	}
}

// TestBurstIsForgotten: a page fetched eighty times in a row and never again
// — a TPC-B history page while it fills — has a saturated count, and must
// not hold its frame for long on the strength of it: ageing evicts it within
// five periods of ordinary traffic.
func TestBurstIsForgotten(t *testing.T) {
	p, _ := newPolicyPool(t, 64, 8)
	period := agePeriod * p.Capacity()
	for i := 0; i < 80; i++ {
		mustFetch(t, p, 0)
	}
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 5*period; i++ {
		mustFetch(t, p, 1+uint64(rnd.Intn(63)))
	}
	if cached(p, 0) {
		t.Fatalf("page 0 still resident %d fetches after its burst (count %d)", 5*period, p.count(0))
	}
}

// TestHotSetMoves: when the skew moves to other pages, the history of the
// old hot set is a liability; ten ageing periods later the hit rate is back
// within five points of where it was.
func TestHotSetMoves(t *testing.T) {
	p, io := newPolicyPool(t, policyPages, policyFrames)
	z := newZipf(policyPages, 0.99, 5)
	perm := rand.New(rand.NewSource(6))
	where := perm.Perm(policyPages)
	hitRate := func(n int) float64 {
		before := io.loads
		for i := 0; i < n; i++ {
			mustFetch(t, p, uint64(where[z.next()]))
		}
		return 1 - float64(io.loads-before)/float64(n)
	}
	period := agePeriod * policyFrames
	hitRate(40 * period)
	steady := hitRate(10 * period)
	where = perm.Perm(policyPages)
	hitRate(8 * period)
	moved := hitRate(2 * period) // the ninth and tenth
	t.Logf("hit rate %.3f, %.3f ten periods after the hot set moved", steady, moved)
	if moved < steady-0.05 {
		t.Fatalf("hit rate %.3f ten periods after the hot set moved, %.3f before", moved, steady)
	}
}

// TestPinnedFrameIsNeverTheVictim: the least referenced frame is skipped
// while it is pinned, and a pool with every frame pinned still gives up with
// ErrNoFrames, only after victimRetries retries.
func TestPinnedFrameIsNeverTheVictim(t *testing.T) {
	p, _ := newPolicyPool(t, 64, 4)
	cold, err := p.Fetch(0) // count 1, and pinned
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for pid := uint64(1); pid < 4; pid++ {
			mustFetch(t, p, pid)
		}
	}
	for pid := uint64(4); pid < 24; pid++ {
		mustFetch(t, p, pid)
		if !cached(p, 0) {
			t.Fatalf("pinned page evicted by the fetch of page %d", pid)
		}
	}
	held := []*Handle{cold}
	for pid := uint64(24); pid < 27; pid++ {
		h, err := p.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
	}
	// A sleep never ends early, so the retries take at least their sleeps.
	budget := time.Duration(victimRetries-victimSpinPhase) * victimRetrySleep
	start := time.Now()
	_, err = p.Fetch(27)
	if took := time.Since(start); !errors.Is(err, ErrNoFrames) || took < budget {
		t.Fatalf("all frames pinned: %v after %v, want ErrNoFrames after at least %v", err, took, budget)
	}
	for _, h := range held {
		h.Release()
	}
	mustFetch(t, p, 30)
}

// TestFailedLoadGrowsNothing: a count is kept only for pages that were
// loaded, so fetching identifiers that do not exist costs no memory.
func TestFailedLoadGrowsNothing(t *testing.T) {
	p, _ := newPolicyPool(t, policyPages, policyFrames)
	for pid := uint64(0); pid < policyPages; pid++ {
		mustFetch(t, p, pid)
	}
	words := func() int { return len(*p.counts.Load()) * blockWords }
	before := words()
	if before != policyPages/16 {
		t.Fatalf("%d count words for %d pages, want %d", before, policyPages, policyPages/16)
	}
	for _, pid := range []uint64{policyPages, 1 << 40, math.MaxUint64} {
		if _, err := p.Fetch(pid); err == nil {
			t.Fatalf("Fetch(%d) of a page that does not exist succeeded", pid)
		}
		if _, err := p.Create(pid, func([]byte, *core.Tracker) error { return errors.New("no room") }); err == nil {
			t.Fatalf("Create(%d) with a failing init succeeded", pid)
		}
	}
	if after := words(); after != before {
		t.Fatalf("count array grew from %d to %d words on failed loads", before, after)
	}
}

// TestCountsSaturateAndHalve checks the packed arithmetic — counting,
// saturation, halving and Forget — against one count per element.
func TestCountsSaturateAndHalve(t *testing.T) {
	p, _ := newPolicyPool(t, 1<<20, 8)
	want := make([]uint64, 100)
	p.cover(uint64(len(want) - 1))
	p.Forget(1 << 40) // beyond the array: nothing to zero
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		pid := uint64(rnd.Intn(len(want)))
		if rnd.Intn(4) == 0 {
			pid = uint64(rnd.Intn(3)) // a few counts saturate
		}
		if rnd.Intn(50) == 0 {
			p.Forget(pid)
			want[pid] = 0
		}
		p.touch(pid)
		want[pid] = min(want[pid]+1, countMax)
		if (i+1)%(agePeriod*p.Capacity()) == 0 {
			for j := range want {
				want[j] /= 2
			}
		}
		for j, w := range want {
			if got := p.count(uint64(j)); got != w {
				t.Fatalf("after %d touches: count of page %d is %d, want %d", i+1, j, got, w)
			}
		}
	}
}

// TestFetchAllocatesNothing: counting references costs a hit no allocation,
// and choosing a victim by them costs a miss none.
func TestFetchAllocatesNothing(t *testing.T) {
	p, io := newPolicyPool(t, policyPages, policyFrames)
	dirtyFetch := func(pid uint64) {
		h, err := p.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		h.MarkDirty()
		h.Release()
	}
	for pid := uint64(0); pid < policyPages; pid++ {
		dirtyFetch(pid)
	}
	if allocs := testing.AllocsPerRun(1000, func() { mustFetch(t, p, policyPages-1) }); allocs != 0 {
		t.Fatalf("a hit allocates %.1f times, want 0", allocs)
	}
	pid, stores := uint64(0), io.stores
	allocs := testing.AllocsPerRun(1000, func() {
		dirtyFetch(pid)
		pid = (pid + 1) % policyPages
	})
	if io.stores-stores < 1000 {
		t.Fatalf("the measured fetches did not all evict a dirty page: %d stores", io.stores-stores)
	}
	if allocs != 0 {
		t.Fatalf("a miss that evicts a dirty page allocates %.1f times, want 0", allocs)
	}
}
