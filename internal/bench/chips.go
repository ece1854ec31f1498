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

// ChipsRow is the outcome of one chip count.
type ChipsRow struct {
	Chips     int
	Committed uint64
	Conflicts uint64

	// Virtual-time figures: the device clock is the busiest chip's clock,
	// so parallel chips shorten the elapsed virtual time of the same work.
	Virtual    time.Duration
	VirtualTPS float64
	Speedup    float64 // VirtualTPS relative to the first row

	// Balance is the least/most busy chip-clock ratio (1 = even striping).
	Balance float64

	Stats ipa.Stats
}

// ChipsResult bundles the whole chip ladder.
type ChipsResult struct {
	Options Options
	Rows    []ChipsRow
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
		cfg := o.nativeConfig(ipa.PSLC)
		cfg.Chips, cfg.TxnCPUCost = chips, chipsTxnCPUCost
		r, err := drive("chips", cfg, tuples, o.Threads, o.Ops, o.Seed, false, stridedUpdates(tuples, o.Threads, 1031))
		if err != nil {
			return out, fmt.Errorf("chips=%d: %w", chips, err)
		}
		row := ChipsRow{
			Chips:      chips,
			Committed:  r.Stats.CommittedTxns,
			Conflicts:  r.Retries,
			Virtual:    r.Virtual,
			VirtualTPS: r.perSec(r.Virtual),
			Speedup:    1,
			Balance:    r.Stats.ChipBalance(),
			Stats:      r.Stats,
		}
		if len(out.Rows) > 0 && out.Rows[0].VirtualTPS > 0 {
			row.Speedup = row.VirtualTPS / out.Rows[0].VirtualTPS
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Write renders the scaling table.
func (r ChipsResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Chip scaling: %s, %d clients, %d ops, working set > buffer pool (per-chip FTL partitions, device clock)\n",
		ipa.IPANativeFlash, r.Options.Threads, r.Options.Ops)
	fmt.Fprintf(w, "%-6s %10s %10s %12s %12s %9s %8s\n",
		"chips", "committed", "conflicts", "virtual", "virtual tps", "balance", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6d %10d %10d %12s %12.0f %9.2f %7.2fx\n",
			row.Chips, row.Committed, row.Conflicts, row.Virtual.Round(time.Millisecond), row.VirtualTPS,
			row.Balance, row.Speedup)
	}
}
