package buffer

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ipa/internal/core"
)

// countIO is a PageIO that only counts: pages [0, pages) exist, a load or a
// store moves no bytes and allocates nothing.
type countIO struct {
	pages         uint64
	loads, stores int
}

func (c *countIO) PageSize() int { return 64 }

func (c *countIO) LoadPageInto(pid uint64, buf []byte, t *core.Tracker) error {
	if pid >= c.pages {
		return errors.New("no such page")
	}
	c.loads++
	t.Init(core.Scheme{N: 2, M: 4}, len(buf), 0)
	return nil
}

func (c *countIO) StorePage(pid uint64, buf []byte, t *core.Tracker) error {
	c.stores++
	t.Reset(0)
	return nil
}

// refClock is the second-chance CLOCK the pool ran before it counted
// references, over the same shards: a reference bit per frame, set by every
// fetch, and a hand that clears bits until it meets a clear one. It is what
// the policy tests measure the pool against.
type refClock struct {
	shards []refShard
}

type refShard struct {
	pids  []uint64
	ref   []bool
	table map[uint64]int
	hand  int
}

func newRefClock(p *Pool) *refClock {
	c := &refClock{shards: make([]refShard, len(p.shards))}
	for i, s := range p.shards {
		c.shards[i] = refShard{ref: make([]bool, len(s.frames)), table: map[uint64]int{}}
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
	policyFrames = 128 // flash_rw's pool: sixteen shards of eight frames
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
// its geometry and returns both miss counts.
func replay(t *testing.T, n int, next func() uint64) (pool, clock int) {
	p, io := newPolicyPool(t, policyPages, policyFrames)
	ref := newRefClock(p)
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
	p, _ := newPolicyPool(t, 64, 8) // one shard
	period := agePeriod * len(p.shards[0].frames)
	for i := 0; i < 80; i++ {
		mustFetch(t, p, 0)
	}
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 5*period; i++ {
		mustFetch(t, p, 1+uint64(rnd.Intn(63)))
	}
	if cached(p, 0) {
		t.Fatalf("page 0 still resident %d fetches after its burst (count %d)", 5*period, p.shards[0].countLocked(0))
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
// while it is pinned, and a shard with every frame pinned still gives up with
// ErrNoFrames after victimRetries retries.
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
	s, attempts := p.shards[0], 0
	_, _, err = s.claimFrame(func() (int, bool) { attempts++; return 0, false })
	if !errors.Is(err, ErrNoFrames) || attempts != victimRetries+1 {
		t.Fatalf("all frames pinned: %v after %d attempts, want ErrNoFrames after %d", err, attempts, victimRetries+1)
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
	words := func() (n int) {
		for _, s := range p.shards {
			n += len(s.counts)
		}
		return n
	}
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

// TestCountsSaturateAndHalve checks the packed arithmetic against one count
// per element.
func TestCountsSaturateAndHalve(t *testing.T) {
	p, _ := newPolicyPool(t, 1<<20, 8)
	s := p.shards[0]
	want := make([]uint64, 100)
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		pid := uint64(rnd.Intn(len(want)))
		if rnd.Intn(4) == 0 {
			pid = uint64(rnd.Intn(3)) // a few counts saturate
		}
		s.touchLocked(pid)
		want[pid] = min(want[pid]+1, countMax)
		if (i+1)%(agePeriod*len(s.frames)) == 0 {
			for j := range want {
				want[j] /= 2
			}
		}
		for j, w := range want {
			if got := s.countLocked(uint64(j)); got != w {
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
