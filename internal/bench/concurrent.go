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

// ConcurrentRow is the outcome of one goroutine count: Run.Aborted counts
// the transactions a lock conflict re-ran, and Wall is the wall-clock time
// of the measured phase.
type ConcurrentRow struct {
	Goroutines int
	Wall       time.Duration
	Result
}

// OpsPerSec is committed transactions per wall-clock second.
func (r ConcurrentRow) OpsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.CommittedTxns) / r.Wall.Seconds()
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
	cfg := o.native(ipa.PSLC)
	cfg.LogFlushLatency, cfg.LogFlushWallLatency = concurrentLogFlushLatency, concurrentLogFlushWallLatency
	for _, g := range ladder(o.Threads) {
		res, wall, err := drive("concurrent", cfg, tuples, g, o.Ops, o.Seed, true, stridedUpdates(tuples, g, 17))
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, ConcurrentRow{g, wall, res})
	}
	return out, nil
}

// Write renders the scaling table; speedup is ops/s relative to the first
// row of the ladder.
func (r ConcurrentResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Concurrency scaling: %s, %d ops over disjoint keys (sharded pool + group-commit WAL)\n",
		ipa.IPANativeFlash, r.Options.Ops)
	fmt.Fprintf(w, "%-11s %10s %10s %12s %9s %12s %14s %9s\n",
		"goroutines", "committed", "conflicts", "wall", "ops/s", "wal flushes", "commits/flush", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-11d %10d %10d %12s %9.0f %12d %14.2f %8.2fx\n",
			row.Goroutines, row.CommittedTxns, row.Run.Aborted, row.Wall.Round(time.Millisecond),
			row.OpsPerSec(), row.WALFlushes, row.CommitsPerFlush(), speedup(row.OpsPerSec(), r.Rows[0].OpsPerSec()))
	}
}

// speedup is v relative to base, 1 when base is 0.
func speedup(v, base float64) float64 {
	if base <= 0 {
		return 1
	}
	return v / base
}
