package bench

import (
	"fmt"
	"io"
	"time"

	"ipa"
)

// The concurrency-scaling scenario models a separate log device that costs
// 100µs of virtual time per WAL flush batch (so the group-commit saving is
// visible in the virtual clock as well as in the batch statistics) and
// 50µs of real time for the flush leader — the wall-clock cost of the
// log-device sync, which is what lets concurrent commits actually pile up
// into shared batches.
const (
	concurrentLogFlushLatency     = 100 * time.Microsecond
	concurrentLogFlushWallLatency = 50 * time.Microsecond
)

// ladder is the 1, 2, 4, 8 progression of the scaling experiments, or the
// single count a flag fixed.
func ladder(fixed int) []int {
	if fixed > 0 {
		return []int{fixed}
	}
	return []int{1, 2, 4, 8}
}

// ConcurrentRow is the outcome of one worker count.
type ConcurrentRow struct {
	Goroutines int
	Committed  uint64
	Conflicts  uint64 // transactions retried after a lock conflict
	Wall       time.Duration
	OpsPerSec  float64 // committed transactions per wall-clock second
	Speedup    float64 // relative to the first row of the ladder

	// Group-commit effectiveness.
	WALFlushes      uint64
	CommitsPerFlush float64
	MaxCommitBatch  uint64

	Stats ipa.Stats
}

// ConcurrentResult bundles the whole goroutine ladder.
type ConcurrentResult struct {
	Options Options
	Rows    []ConcurrentRow
}

// Concurrent runs the concurrency-scaling scenario: the same update-heavy
// workload — o.Ops single-row update transactions over disjoint keys — is
// applied by an increasing number of goroutines against one database, and
// the aggregate wall-clock throughput is reported. The scenario exercises
// the sharded buffer pool (goroutines on different pages take different
// shard latches) and the group-commit WAL (concurrent commits share log
// flushes).
func Concurrent(o Options) (ConcurrentResult, error) {
	out := ConcurrentResult{Options: o}
	tuples := pick(o.Quick, 4096, 2048)
	cfg := o.nativeConfig(ipa.PSLC)
	cfg.LogFlushLatency, cfg.LogFlushWallLatency = concurrentLogFlushLatency, concurrentLogFlushWallLatency
	for _, g := range ladder(o.Threads) {
		r, err := drive("concurrent", cfg, tuples, g, o.Ops, o.Seed, true, stridedUpdates(tuples, g, 17))
		if err != nil {
			return out, err
		}
		row := ConcurrentRow{
			Goroutines:      g,
			Committed:       r.Stats.CommittedTxns,
			Conflicts:       r.Retries,
			Wall:            r.Wall,
			OpsPerSec:       r.perSec(r.Wall),
			Speedup:         1,
			WALFlushes:      r.Stats.WALFlushes,
			CommitsPerFlush: r.Stats.CommitsPerFlush(),
			MaxCommitBatch:  r.Stats.WALMaxCommitBatch,
			Stats:           r.Stats,
		}
		if len(out.Rows) > 0 && out.Rows[0].OpsPerSec > 0 {
			row.Speedup = row.OpsPerSec / out.Rows[0].OpsPerSec
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Write renders the scaling table.
func (r ConcurrentResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Concurrency scaling: %s, %d ops over disjoint keys (sharded pool + group-commit WAL)\n",
		ipa.IPANativeFlash, r.Options.Ops)
	fmt.Fprintf(w, "%-11s %10s %10s %12s %9s %12s %14s %9s\n",
		"goroutines", "committed", "conflicts", "wall", "ops/s", "wal flushes", "commits/flush", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-11d %10d %10d %12s %9.0f %12d %14.2f %8.2fx\n",
			row.Goroutines, row.Committed, row.Conflicts, row.Wall.Round(time.Millisecond),
			row.OpsPerSec, row.WALFlushes, row.CommitsPerFlush, row.Speedup)
	}
}
