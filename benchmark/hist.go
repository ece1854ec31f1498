package main

import "math/bits"

// hist is a preallocated log-bucket histogram of nanosecond values: 32
// linear sub-buckets per power of two (≈3% resolution), so recording a
// latency is two shifts and an increment and never allocates.
type hist struct {
	counts [64 * histSub]uint64
	n      uint64
	max    uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 - histSubBits
	return (e+1)<<histSubBits | int(v>>uint(e))&(histSub-1)
}

// histBounds returns the value range [lo, hi) of bucket b.
func histBounds(b int) (lo, hi uint64) {
	if b < histSub {
		return uint64(b), uint64(b) + 1
	}
	e := uint(b>>histSubBits) - 1
	lo = uint64(histSub|b&(histSub-1)) << e
	return lo, lo + 1<<e
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.counts[histBucket(u)]++
	h.n++
	if u > h.max {
		h.max = u
	}
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// by rank inside the bucket that holds it. Interpolation keeps wall-clock
// percentiles from snapping to the same bucket edge on every run.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := histBounds(b)
			if hi > h.max+1 {
				hi = h.max + 1
			}
			return float64(lo) + (target-seen)/float64(c)*float64(hi-lo)
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// tailMean returns the mean of the values above the q-quantile, taking
// every bucket at its midpoint. One slow operation in a thousand is what a
// GC pause looks like from the caller's side; the mean of that tail moves
// with both how often and how long.
func (h *hist) tailMean(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	want := (1 - q) * float64(h.n)
	var got, sum float64
	for b := len(h.counts) - 1; b >= 0 && got < want; b-- {
		c := float64(h.counts[b])
		if c == 0 {
			continue
		}
		if c > want-got {
			c = want - got
		}
		lo, hi := histBounds(b)
		if hi > h.max+1 {
			hi = h.max + 1
		}
		sum += c * float64(lo+hi-1) / 2
		got += c
	}
	return sum / got
}
