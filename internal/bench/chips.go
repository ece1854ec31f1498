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

	Wall       time.Duration
	WallPerSec float64

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

// Chips runs the chip-scaling scenario: the same concurrent update-heavy
// workload (o.Threads goroutines, a working set several times the buffer
// pool so every transaction drives Flash I/O) is run against devices with
// an increasing number of NAND chips. With the chip-parallel flash stack,
// logical pages stripe across chips and operations on different chips
// proceed in parallel, so the virtual-time throughput — committed
// transactions per second of device time — rises with the chip count;
// before the per-chip partitioning it was flat. Virtual time models
// per-chip command pipelining (the device clock is the busiest chip's busy
// time, see internal/flashdev), so the reported scaling is the device-side
// ceiling; the workload keeps many operations in flight so that ceiling is
// actually driven.
func Chips(o Options) (ChipsResult, error) {
	out := ChipsResult{Options: o}
	tuples := pick(o.Quick, 16384, 4096)
	for _, chips := range ladder(o.Chips) {
		cfg := o.nativeConfig(ipa.PSLC)
		cfg.Chips, cfg.TxnCPUCost = chips, chipsTxnCPUCost
		r, err := drive("chips", cfg, tuples, o.Threads, o.Ops, stridedUpdates(tuples, o.Threads, 1031))
		if err != nil {
			return out, fmt.Errorf("chips=%d: %w", chips, err)
		}
		row := ChipsRow{
			Chips:      chips,
			Committed:  r.Stats.CommittedTxns,
			Conflicts:  r.Retries,
			Wall:       r.Wall,
			WallPerSec: r.perSec(r.Wall),
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
	fmt.Fprintf(w, "Chip scaling: %s, %d goroutines, %d ops, working set > buffer pool (per-chip FTL partitions)\n",
		ipa.IPANativeFlash, r.Options.Threads, r.Options.Ops)
	fmt.Fprintf(w, "%-6s %10s %10s %12s %11s %12s %12s %9s %8s\n",
		"chips", "committed", "conflicts", "wall", "wall tps", "virtual", "virtual tps", "balance", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6d %10d %10d %12s %11.0f %12s %12.0f %9.2f %7.2fx\n",
			row.Chips, row.Committed, row.Conflicts, row.Wall.Round(time.Millisecond),
			row.WallPerSec, row.Virtual.Round(time.Millisecond), row.VirtualTPS,
			row.Balance, row.Speedup)
	}
}
