package server

import (
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestHistShardFillsWholeCacheLines pins the pad: a shard that is not a
// multiple of 64 bytes shares a cache line with its neighbour in the
// shard array, and the two workers recording into them contend on it.
func TestHistShardFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(histShard{}); n%64 != 0 {
		t.Fatalf("histShard is %d bytes, not a multiple of 64", n)
	}
}

// TestBucketBoundaries pins the le semantics at the edges: zero and
// negative durations land in bucket 0, a duration exactly on a bound
// lands in that bound's bucket (le is inclusive), one tick past a bound
// spills into the next, and anything beyond the largest finite bound
// lands in +Inf.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0}, // clamped by observe, but bucketOf alone also maps it to 0
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},                   // exactly on the first bound: le inclusive
		{time.Microsecond + time.Nanosecond, 1}, // one past the bound
		{2 * time.Microsecond, 1},               // exactly on the second bound
		{histBounds[histBucketCount-1], histBucketCount - 1},               // exactly on the max bound
		{histBounds[histBucketCount-1] + time.Nanosecond, histBucketCount}, // past max: +Inf
		{time.Hour, histBucketCount},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// The bounds double from 1µs.
	for i := 1; i < histBucketCount; i++ {
		if histBounds[i] != 2*histBounds[i-1] {
			t.Fatalf("bound %d = %v, want %v", i, histBounds[i], 2*histBounds[i-1])
		}
	}
}

// TestHistogramMergeOracle records a random workload twice — once through
// the sharded histogram with recorders spread over every shard, once into
// a plain serial array — and requires the merged snapshot to match the
// oracle exactly.
func TestHistogramMergeOracle(t *testing.T) {
	const shards = 7
	h := &cmdHist{shards: make([]histShard, shards)}
	rng := rand.New(rand.NewSource(41))

	var oracle [histBucketCount + 1]uint64
	var oracleSum time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		// Spread observations across nine orders of magnitude so every
		// bucket region gets traffic, including +Inf.
		d := time.Duration(rng.Int63n(int64(time.Second)))
		if i%100 == 0 {
			d = time.Second + time.Duration(rng.Int63n(int64(time.Second)))
		}
		h.observe(i%shards, d)
		oracle[bucketOf(d)]++
		oracleSum += d
	}

	s := h.snapshot()
	if s.Count != n {
		t.Fatalf("merged count = %d, want %d", s.Count, n)
	}
	if s.Sum != oracleSum {
		t.Fatalf("merged sum = %v, want %v", s.Sum, oracleSum)
	}
	if s.Counts != oracle {
		t.Fatalf("merged buckets = %v, want %v", s.Counts, oracle)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// (run under -race by CI) and checks the final snapshot accounts for
// every observation.
func TestHistogramConcurrent(t *testing.T) {
	shards := latencyShards()
	h := &cmdHist{shards: make([]histShard, shards)}
	const (
		workers = 8
		perW    = 5000
	)
	var recorders sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	// A concurrent scraper: snapshots taken mid-write must be internally
	// sane (count equals the bucket total) even while recorders run.
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.snapshot()
			var total uint64
			for _, c := range s.Counts {
				total += c
			}
			if total != s.Count {
				t.Errorf("mid-run snapshot inconsistent: bucket total %d != count %d", total, s.Count)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		recorders.Add(1)
		go func(w int) {
			defer recorders.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				h.observe(w%shards, time.Duration(rng.Int63n(int64(10*time.Millisecond))))
			}
		}(w)
	}
	recorders.Wait()
	close(stop)
	<-scraperDone

	s := h.snapshot()
	if s.Count != workers*perW {
		t.Fatalf("final count = %d, want %d", s.Count, workers*perW)
	}
}

// TestQuantileEstimate checks the interpolation on a hand-computable
// distribution: 100 observations at ~1.5µs (bucket le=2µs) and 100 at
// ~3µs (bucket le=4µs).
func TestQuantileEstimate(t *testing.T) {
	h := &cmdHist{shards: make([]histShard, 1)}
	for i := 0; i < 100; i++ {
		h.observe(0, 1500*time.Nanosecond)
		h.observe(0, 3*time.Microsecond)
	}
	s := h.snapshot()
	// p25 (rank 50) sits mid-bucket [1µs,2µs] → 1µs + (50/100)·1µs = 1.5µs.
	if got, want := s.quantile(0.25), 1500*time.Nanosecond; got != want {
		t.Errorf("p25 = %v, want %v", got, want)
	}
	// p75 (rank 150) sits mid-bucket (2µs,4µs] → 2µs + (50/100)·2µs = 3µs.
	if got, want := s.quantile(0.75), 3*time.Microsecond; got != want {
		t.Errorf("p75 = %v, want %v", got, want)
	}
	if got, want := s.mean(), (1500*time.Nanosecond+3*time.Microsecond)/2; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// +Inf observations clamp to the largest finite bound.
	h2 := &cmdHist{shards: make([]histShard, 1)}
	h2.observe(0, time.Hour)
	if got, want := h2.snapshot().quantile(0.99), histBounds[histBucketCount-1]; got != want {
		t.Errorf("+Inf quantile = %v, want clamp to %v", got, want)
	}
	// Empty histogram.
	var empty histSnapshot
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("empty histogram must report zero quantile and mean")
	}
}
