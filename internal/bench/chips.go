package bench

import (
	"fmt"
	"io"
	"time"

	"ipa"
)

// chipsTxnCPUCost is the virtual CPU time charged per commit: kept small so
// device time, not the serial CPU charge, dominates the clock and the chip
// scaling is visible.
const chipsTxnCPUCost = 5 * time.Microsecond

// ladder is the 1, 2, 4, 8 progression of the chip counts, or the single
// count a flag fixed.
func ladder(fixed int) []int {
	if fixed > 0 {
		return []int{fixed}
	}
	return []int{1, 2, 4, 8}
}

// ChipsResult bundles the whole chip ladder, one arm per chip count (its
// Stats.Chips). The device clock is the busiest chip's clock, so parallel
// chips shorten the arm's Stats.Elapsed for the same work.
type ChipsResult struct {
	Options Options
	Rows    []Result
}

// Chips runs the chip-scaling scenario: the same update-heavy workload
// (o.Threads clients striding through disjoint keys, a working set several
// times the buffer pool so every transaction drives Flash I/O) is run
// against devices with an increasing number of NAND chips. Logical pages
// stripe across chips and every device operation is charged to its own
// chip's clock, the device clock being the busiest chip's, so the
// virtual-time throughput — committed transactions per second of device
// time — rises with the chip count. The clients' transactions interleave
// on one goroutine in an order the seed draws, so every figure repeats.
func Chips(o Options) (ChipsResult, error) {
	out := ChipsResult{Options: o}
	tuples := pick(o.Quick, 16384, 4096)
	for _, chips := range ladder(o.Chips) {
		cfg := o.native(ipa.PSLC)
		cfg.Chips, cfg.TxnCPUCost = chips, chipsTxnCPUCost
		res, err := drive("chips", cfg, tuples, o.Threads, o.Ops, o.Seed, stridedUpdates(tuples, o.Threads, 1031))
		if err != nil {
			return out, fmt.Errorf("chips=%d: %w", chips, err)
		}
		out.Rows = append(out.Rows, res)
	}
	return out, nil
}

// Write renders the scaling table.
func (r ChipsResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Chip scaling: %s, %d clients, %d ops, working set > buffer pool (per-chip FTL partitions, device clock)\n",
		ipa.IPANativeFlash, r.Options.Threads, r.Options.Ops)
	fmt.Fprintf(w, "%-6s %10s %10s %12s %12s %9s %8s\n",
		"chips", "committed", "conflicts", "virtual", "virtual tps", "balance", "speedup")
	for _, s := range r.Rows {
		fmt.Fprintf(w, "%-6d %10d %10d %12s %12.0f %9.2f %7.2fx\n",
			s.Chips, s.CommittedTxns, s.Run.Aborted, s.Elapsed.Round(time.Millisecond), s.Throughput(),
			s.ChipBalance(), speedup(s.Throughput(), r.Rows[0].Throughput()))
	}
}

// speedup is v relative to base, 1 when base is 0.
func speedup(v, base float64) float64 {
	if base <= 0 {
		return 1
	}
	return v / base
}
