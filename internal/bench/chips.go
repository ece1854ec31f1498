package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"ipa"
)

// ChipsOptions configures the chip-scaling scenario: the same concurrent
// update-heavy workload (a fixed number of goroutines, a working set
// deliberately larger than the buffer pool so every transaction drives
// Flash I/O) is run against devices with an increasing number of NAND
// chips. With the chip-parallel flash stack, logical pages stripe across
// chips and operations on different chips proceed in parallel, so the
// virtual-time throughput — committed transactions per second of device
// time — rises with the chip count; before the per-chip partitioning it
// was flat. Virtual time models per-chip command pipelining (the device
// clock is the busiest chip's busy time, see internal/flashdev), so the
// reported scaling is the device-side ceiling; the workload keeps many
// operations in flight so that ceiling is actually driven.
type ChipsOptions struct {
	// Chips is the ladder of chip counts (default 1, 2, 4, 8).
	Chips []int
	// Goroutines is the fixed worker count applying the load (default 8).
	Goroutines int
	// Tuples is the number of rows loaded before the measurement (default
	// 16384 — several times the default buffer pool, so updates constantly
	// fetch and evict).
	Tuples int
	// TupleSize is the row size in bytes (default 100).
	TupleSize int
	// Ops is the total number of committed update transactions per run,
	// split evenly across the goroutines (default 8000).
	Ops int
	// Mode, SchemeN/M and Flash configure the write path under test
	// (default IPA native Flash with the paper's 2×4 scheme on pSLC).
	Mode             ipa.WriteMode
	SchemeN, SchemeM int
	Flash            ipa.FlashMode
	// TxnCPUCost is the virtual CPU time charged per commit (default 5µs;
	// kept small so device time, not the serial CPU charge, dominates the
	// clock and the chip scaling is visible).
	TxnCPUCost time.Duration
	// Profile supplies the per-chip device sizing.
	Profile DeviceProfile
	Seed    int64
}

// DefaultChipsOptions returns the configuration used by cmd/ipabench.
func DefaultChipsOptions() ChipsOptions {
	return ChipsOptions{
		Chips:      []int{1, 2, 4, 8},
		Goroutines: 8,
		Tuples:     16384,
		TupleSize:  100,
		Ops:        8000,
		Mode:       ipa.IPANativeFlash,
		SchemeN:    2,
		SchemeM:    4,
		Flash:      ipa.PSLC,
		TxnCPUCost: 5 * time.Microsecond,
		Profile:    DefaultProfile,
		Seed:       1,
	}
}

func (o ChipsOptions) withDefaults() ChipsOptions {
	d := DefaultChipsOptions()
	if len(o.Chips) == 0 {
		o.Chips = d.Chips
	}
	if o.Goroutines <= 0 {
		o.Goroutines = d.Goroutines
	}
	if o.Tuples <= 0 {
		o.Tuples = d.Tuples
	}
	if o.TupleSize <= 0 {
		o.TupleSize = d.TupleSize
	}
	if o.Ops <= 0 {
		o.Ops = d.Ops
	}
	if o.SchemeN == 0 && o.SchemeM == 0 {
		o.SchemeN, o.SchemeM = d.SchemeN, d.SchemeM
		if o.Mode == ipa.Traditional {
			o.Mode = d.Mode
			o.Flash = d.Flash
		}
	}
	if o.TxnCPUCost <= 0 {
		o.TxnCPUCost = d.TxnCPUCost
	}
	if o.Profile == (DeviceProfile{}) {
		o.Profile = d.Profile
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

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
	Options ChipsOptions
	Rows    []ChipsRow
}

// Chips runs the chip-scaling scenario.
func Chips(o ChipsOptions) (ChipsResult, error) {
	o = o.withDefaults()
	out := ChipsResult{Options: o}
	for _, chips := range o.Chips {
		if chips <= 0 {
			return out, fmt.Errorf("bench: invalid chip count %d", chips)
		}
		row, err := runChips(o, chips)
		if err != nil {
			return out, err
		}
		if len(out.Rows) > 0 && out.Rows[0].VirtualTPS > 0 {
			row.Speedup = row.VirtualTPS / out.Rows[0].VirtualTPS
		} else {
			row.Speedup = 1
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// runChips measures one chip count on a fresh database.
func runChips(o ChipsOptions, chips int) (ChipsRow, error) {
	cfg := ipa.Config{
		PageSize:        o.Profile.PageSize,
		Blocks:          o.Profile.Blocks,
		PagesPerBlock:   o.Profile.PagesPerBlock,
		Chips:           chips,
		BufferPoolPages: o.Profile.BufferPoolPages,
		WriteMode:       o.Mode,
		Scheme:          ipa.Scheme{N: o.SchemeN, M: o.SchemeM},
		FlashMode:       o.Flash,
		TxnCPUCost:      o.TxnCPUCost,
		Seed:            o.Seed,
	}
	db, err := ipa.Open(cfg)
	if err != nil {
		return ChipsRow{}, fmt.Errorf("bench: chips=%d: %w", chips, err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("chips", o.TupleSize)
	if err != nil {
		return ChipsRow{}, err
	}
	if err := loadRows(db, tbl, o.Tuples, make([]byte, o.TupleSize)); err != nil {
		return ChipsRow{}, fmt.Errorf("bench: chips load: %w", err)
	}
	if err := db.FlushAll(); err != nil {
		return ChipsRow{}, err
	}
	db.ResetStats()
	virtualStart := db.Now()

	perWorker, extraOps := o.Ops/o.Goroutines, o.Ops%o.Goroutines
	keysPerWorker := o.Tuples / o.Goroutines
	if keysPerWorker == 0 {
		keysPerWorker = 1
	}
	var conflicts atomic.Uint64
	errs := make(chan error, o.Goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.Goroutines; w++ {
		ops := perWorker
		if w < extraOps {
			ops++
		}
		wg.Add(1)
		go func(w, ops int) {
			defer wg.Done()
			// Each worker strides through its own key slice with a large
			// prime step, so consecutive transactions land on different
			// pages — and, with sequential page identifiers striped across
			// chips, on different chips.
			base := int64(w * keysPerWorker)
			for i := 0; i < ops; i++ {
				key := base + int64(i*1031)%int64(keysPerWorker)
				patch := []byte{byte(i), byte(i >> 8), byte(w)}
				for {
					tx := db.Begin()
					err := tx.UpdateAt(tbl, key, 8, patch)
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						break
					}
					_ = tx.Abort()
					if ipaConflict(err) {
						conflicts.Add(1)
						continue
					}
					errs <- fmt.Errorf("bench: chips worker %d: %w", w, err)
					return
				}
			}
		}(w, ops)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return ChipsRow{}, err
	}
	if err := db.FlushAll(); err != nil {
		return ChipsRow{}, err
	}
	s := db.Stats()
	virtual := db.Now() - virtualStart
	r := ChipsRow{
		Chips:     chips,
		Committed: s.CommittedTxns,
		Conflicts: conflicts.Load(),
		Wall:      wall,
		Virtual:   virtual,
		Balance:   s.ChipBalance(),
		Stats:     s,
	}
	if wall > 0 {
		r.WallPerSec = float64(s.CommittedTxns) / wall.Seconds()
	}
	if virtual > 0 {
		r.VirtualTPS = float64(s.CommittedTxns) / virtual.Seconds()
	}
	return r, nil
}

// Write renders the scaling table.
func (r ChipsResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Chip scaling: %s, %d goroutines, %d ops, working set > buffer pool (per-chip FTL partitions)\n",
		r.Options.Mode, r.Options.Goroutines, r.Options.Ops)
	fmt.Fprintf(w, "%-6s %10s %10s %12s %11s %12s %12s %9s %8s\n",
		"chips", "committed", "conflicts", "wall", "wall tps", "virtual", "virtual tps", "balance", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6d %10d %10d %12s %11.0f %12s %12.0f %9.2f %7.2fx\n",
			row.Chips, row.Committed, row.Conflicts, row.Wall.Round(time.Millisecond),
			row.WallPerSec, row.Virtual.Round(time.Millisecond), row.VirtualTPS,
			row.Balance, row.Speedup)
	}
}
