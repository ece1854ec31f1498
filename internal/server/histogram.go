package server

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Per-command latency histograms. Recording must never serialise the hot
// path, so each histogram is split into per-worker shards of atomic
// counters: a session records into its own shard lock-free, and the
// /metrics and /stats.json scrapers merge the shards on read. The bucket
// layout is fixed — log-spaced powers of two from 1µs — so merged shards
// are always bucket-compatible and the Prometheus exposition (the
// `_bucket`/`_sum`/`_count` triple) needs no locking either.

// histBucketCount is the number of finite buckets; one +Inf catch-all
// bucket follows. Bounds run 1µs, 2µs, … 2^19µs ≈ 0.52s.
const histBucketCount = 20

// histBounds holds the inclusive (`le`) upper bound of each finite bucket.
var histBounds = func() [histBucketCount]time.Duration {
	var b [histBucketCount]time.Duration
	d := time.Microsecond
	for i := range b {
		b[i] = d
		d *= 2
	}
	return b
}()

// bucketOf returns the index of the first bucket whose bound is >= d;
// durations beyond the last finite bound land in the +Inf bucket
// (index histBucketCount). Non-positive durations land in bucket 0.
func bucketOf(d time.Duration) int {
	for i, bound := range histBounds {
		if d <= bound {
			return i
		}
	}
	return histBucketCount
}

// histShard is one worker's slice of a histogram. The trailing pad rounds
// it up to whole 64-byte cache lines, so concurrent shards share none.
type histShard struct {
	counts [histBucketCount + 1]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	_      [(64 - (histBucketCount+2)*8%64) % 64]byte
}

// cmdHist is the sharded histogram of one command.
type cmdHist struct {
	shards []histShard
}

// observe records one duration into the caller's shard.
func (h *cmdHist) observe(shard int, d time.Duration) {
	if d < 0 {
		d = 0
	}
	sh := &h.shards[shard]
	sh.counts[bucketOf(d)].Add(1)
	sh.sum.Add(int64(d))
}

// histSnapshot is a merged, point-in-time view of one histogram. Counts
// are per-bucket (not cumulative); the exposition layer accumulates.
type histSnapshot struct {
	Counts [histBucketCount + 1]uint64
	Sum    time.Duration
	Count  uint64
}

// snapshot merges all shards. Concurrent observers may land between two
// bucket reads, so a snapshot is only guaranteed to cover every
// observation that completed before the call — exactly the Prometheus
// scrape contract.
func (h *cmdHist) snapshot() histSnapshot {
	var s histSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.Sum += time.Duration(sh.sum.Load())
	}
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

// quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the owning bucket, the standard Prometheus histogram_quantile
// estimate. Observations in the +Inf bucket clamp to the largest finite
// bound. Returns 0 for an empty histogram.
func (s histSnapshot) quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= histBucketCount {
			return histBounds[histBucketCount-1]
		}
		lower := time.Duration(0)
		if i > 0 {
			lower = histBounds[i-1]
		}
		upper := histBounds[i]
		frac := (rank - prev) / float64(c)
		return lower + time.Duration(frac*float64(upper-lower))
	}
	return histBounds[histBucketCount-1]
}

// mean returns the average observed duration.
func (s histSnapshot) mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// latencies is the per-command histogram vector, indexed by command.id.
// The command set is the static dispatch registry, so the vector is built
// once and read-only — no lock anywhere on the record path.
type latencies struct {
	shards int
	cmds   []cmdHist
}

// latencyShards picks the shard count: one per scheduling lane, capped so
// scrapes stay cheap.
func latencyShards() int { return min(runtime.GOMAXPROCS(0), 16) }

func newLatencies(shards int) *latencies {
	l := &latencies{shards: shards, cmds: make([]cmdHist, len(commands))}
	for i := range l.cmds {
		l.cmds[i].shards = make([]histShard, shards)
	}
	return l
}

// observe records one handled command, given by its id.
func (l *latencies) observe(cmd, shard int, d time.Duration) { l.cmds[cmd].observe(shard, d) }

// snapshot merges every command's shards, by command name.
func (l *latencies) snapshot() map[string]histSnapshot {
	out := make(map[string]histSnapshot, len(l.cmds))
	for name, c := range commands {
		out[name] = l.cmds[c.id].snapshot()
	}
	return out
}
