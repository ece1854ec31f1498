package stat

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// The reference model: the bucket scan and the quantile of the server's
// first latency histograms, which Wait replaced. Wait must place every
// duration and estimate every quantile exactly as they do, since the
// exposition of ipa_server_command_seconds and /stats.json depends on it.

// refBounds holds the inclusive upper bound of each finite bucket.
var refBounds = func() [WaitBuckets - 1]time.Duration {
	var b [WaitBuckets - 1]time.Duration
	d := time.Microsecond
	for i := range b {
		b[i] = d
		d *= 2
	}
	return b
}()

// refBucketOf returns the index of the first bucket whose bound is >= d;
// durations beyond the last finite bound land in the last bucket.
func refBucketOf(d time.Duration) int {
	for i, bound := range refBounds {
		if d <= bound {
			return i
		}
	}
	return WaitBuckets - 1
}

// refQuantile is the reference estimate over per-bucket counts.
func refQuantile(counts [WaitBuckets]uint64, q float64) time.Duration {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	last := refBounds[len(refBounds)-1]
	rank := q * float64(n)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(refBounds) {
			return last
		}
		lower := time.Duration(0)
		if i > 0 {
			lower = refBounds[i-1]
		}
		upper := refBounds[i]
		frac := (rank - prev) / float64(c)
		return lower + time.Duration(frac*float64(upper-lower))
	}
	return last
}

// bucketOf observes d alone and returns the bucket it landed in.
func bucketOf(t *testing.T, d time.Duration) int {
	t.Helper()
	var w Wait
	w.Observe(d)
	for i, c := range w.Buckets {
		if c == 1 {
			return i
		}
	}
	t.Fatalf("Observe(%v) counted in no bucket: %v", d, w.Buckets)
	return -1
}

// TestWaitBuckets pins the le semantics at the edges: zero and negative
// durations land in bucket 0, a duration exactly on a bound in that
// bound's bucket (le is inclusive), one nanosecond past it in the next,
// and anything beyond the largest finite bound in the last; and it holds
// Observe to the reference scan on every bound ±1 ns and on random
// durations over nine orders of magnitude.
func TestWaitBuckets(t *testing.T) {
	last := refBounds[len(refBounds)-1]
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + time.Nanosecond, 1},
		{2 * time.Microsecond, 1},
		{last, WaitBuckets - 2},
		{last + time.Nanosecond, WaitBuckets - 1},
		{time.Hour, WaitBuckets - 1},
		{1<<63 - 1, WaitBuckets - 1},
	} {
		if got := bucketOf(t, c.d); got != c.want {
			t.Errorf("Observe(%v) landed in bucket %d, want %d", c.d, got, c.want)
		}
	}
	var ds []time.Duration
	for _, b := range refBounds {
		ds = append(ds, b-time.Nanosecond, b, b+time.Nanosecond)
	}
	rng := rand.New(rand.NewSource(7))
	for range 10000 {
		ds = append(ds, time.Duration(rng.Int63n(int64(2*time.Second))))
	}
	for _, d := range ds {
		if got, want := bucketOf(t, d), refBucketOf(d); got != want {
			t.Fatalf("Observe(%v) landed in bucket %d, the reference scan in %d", d, got, want)
		}
	}
}

// TestWaitMergeMatchesTheReference records a random workload twice: into
// seven Waits, merged with Add over Load as a scrape merges the server's
// rows, and into a plain array through the reference scan. The merge must
// match it exactly, and so must every quantile the surfaces print.
func TestWaitMergeMatchesTheReference(t *testing.T) {
	var rows [7]Wait
	var ref [WaitBuckets]uint64
	var sum time.Duration
	rng := rand.New(rand.NewSource(41))
	const n = 10000
	for i := range n {
		d := time.Duration(rng.Int63n(int64(time.Second)))
		if i%100 == 0 {
			d = time.Second + time.Duration(rng.Int63n(int64(time.Second)))
		}
		rows[i%len(rows)].Observe(d)
		ref[refBucketOf(d)]++
		sum += d
	}
	var w Wait
	for i := range rows {
		w = Add(w, Load(&rows[i]))
	}
	if w.Count() != n || time.Duration(w.Nanos) != sum || w.Buckets != ref {
		t.Fatalf("merged count %d, total %v, buckets %v; want %d, %v, %v", w.Count(), time.Duration(w.Nanos), w.Buckets, n, sum, ref)
	}
	if got, want := w.Mean(), sum/n; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		if got, want := w.Quantile(q), refQuantile(ref, q); got != want {
			t.Errorf("Quantile(%v) = %v, the reference %v", q, got, want)
		}
	}
	if got, want := Sub(w, rows[0]).Count(), n-rows[0].Count(); got != want {
		t.Errorf("Sub leaves %d waits, want %d", got, want)
	}
}

// TestWaitConcurrent has eight goroutines record into four rows while a
// scraper merges them (CI runs it under -race): no merged count may go
// backwards, and the final merge accounts for every wait and its total.
func TestWaitConcurrent(t *testing.T) {
	const workers, perW = 8, 5000
	rows := make([]Wait, 4)
	merge := func() Wait {
		var w Wait
		for i := range rows {
			w = Add(w, Load(&rows[i]))
		}
		return w
	}
	var recorders sync.WaitGroup
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		var seen uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := merge().Count()
			if n < seen {
				t.Errorf("merged count went back from %d to %d", seen, n)
				return
			}
			seen = n
		}
	}()
	var sum time.Duration
	for w := range workers {
		rng := rand.New(rand.NewSource(int64(w)))
		ds := make([]time.Duration, perW)
		for i := range ds {
			ds[i] = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
			sum += ds[i]
		}
		recorders.Add(1)
		go func() {
			defer recorders.Done()
			for _, d := range ds {
				rows[w%len(rows)].Observe(d)
			}
		}()
	}
	recorders.Wait()
	close(stop)
	<-scraped
	if w := merge(); w.Count() != workers*perW || time.Duration(w.Nanos) != sum {
		t.Fatalf("final merge: %d waits totalling %v, want %d totalling %v", w.Count(), time.Duration(w.Nanos), workers*perW, sum)
	}
}

// TestWaitQuantileEstimate checks the interpolation on a hand-computable
// distribution: 100 waits at 1.5 µs (bucket le=2µs) and 100 at 3 µs
// (bucket le=4µs); then the clamp of a wait past the last bound and the
// empty distribution.
func TestWaitQuantileEstimate(t *testing.T) {
	var w Wait
	for range 100 {
		w.Observe(1500 * time.Nanosecond)
		w.Observe(3 * time.Microsecond)
	}
	// p25 (rank 50) sits mid-bucket (1µs,2µs] → 1µs + (50/100)·1µs = 1.5µs.
	if got, want := w.Quantile(0.25), 1500*time.Nanosecond; got != want {
		t.Errorf("p25 = %v, want %v", got, want)
	}
	// p75 (rank 150) sits mid-bucket (2µs,4µs] → 2µs + (50/100)·2µs = 3µs.
	if got, want := w.Quantile(0.75), 3*time.Microsecond; got != want {
		t.Errorf("p75 = %v, want %v", got, want)
	}
	if got, want := w.Mean(), (1500*time.Nanosecond+3*time.Microsecond)/2; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	var long Wait
	long.Observe(time.Hour)
	if got, want := long.Quantile(0.99), refBounds[len(refBounds)-1]; got != want {
		t.Errorf("a wait past the last bound: p99 = %v, want the clamp to %v", got, want)
	}
	var empty Wait
	if empty.Count() != 0 || empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("an empty Wait must report zero count, quantile and mean")
	}
}
