// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation:
//
//   - Figure 1: DBMS write-amplification of the traditional write path vs
//     In-Place Appends (net modified bytes per evicted dirty page).
//   - Table 1: TPC-B under the traditional approach [0×0] and IPA [2×4] in
//     pSLC and odd-MLC modes (host I/O, GC work, throughput).
//   - The OLTP suite backing the throughput/erase/migration claims for
//     TPC-B, TPC-C and TATP.
//   - The IPA vs In-Page Logging comparison (trace replay).
//   - The longevity estimate and the N×M scheme sweep ablation.
//
// plus the engine experiments this repository adds (concurrency, chip
// scaling, crash torture, index maintenance, YCSB). It is one harness:
// Options is what a run can vary, Specs is the registry of experiments
// cmd/ipabench iterates, an arm of an experiment is an ipa.Config, and
// measure is the one protocol that runs an arm (open, load, flush, reset,
// measured phase, flush). Every arm's Result carries its ipa.Stats; every
// experiment returns its arms and renders them as a plain-text table
// comparable with the paper.
package bench

import (
	"fmt"

	"ipa"
	"ipa/internal/workload"
)

// Options is everything that can differ between two runs of one experiment:
// exactly what an ipabench flag sets. Every other number of an experiment
// (workload lists, index schemes, ladders, read mixes) is a literal in that
// experiment's own file, with its -quick value beside it.
type Options struct {
	// Quick selects the shrunken variant of the per-experiment literals.
	Quick bool
	// Profile sizes the simulated device.
	Profile DeviceProfile
	// N and M are the IPA scheme of the write path under test.
	N, M int
	// Scale is the workload scale factor (see NewWorkload).
	Scale int
	// Ops bounds every measured phase by committed transactions.
	Ops  int
	Seed int64
	// Threads is the client count of the concurrent experiments (goroutines
	// in -exp concurrent, interleaved programs in readmix and chips) and
	// Chips the chip count of the device; 0 runs the experiment's ladder.
	Threads int
	Chips   int
}

// with overlays the fields that over sets (the non-zero ones) onto o.
func (o Options) with(over Options) Options {
	if over.Profile != (DeviceProfile{}) {
		o.Profile = over.Profile
	}
	if over.N != 0 || over.M != 0 {
		o.N, o.M = over.N, over.M
	}
	if over.Scale > 0 {
		o.Scale = over.Scale
	}
	if over.Ops > 0 {
		o.Ops = over.Ops
	}
	if over.Seed != 0 {
		o.Seed = over.Seed
	}
	if over.Threads > 0 {
		o.Threads = over.Threads
	}
	if over.Chips > 0 {
		o.Chips = over.Chips
	}
	return o
}

// scheme is the N×M scheme of the IPA configurations.
func (o Options) scheme() ipa.Scheme { return ipa.Scheme{N: o.N, M: o.M} }

// pick returns the -quick variant of a per-experiment literal.
func pick[T any](quick bool, full, shrunk T) T {
	if quick {
		return shrunk
	}
	return full
}

// config is the engine configuration of one arm: o's device and seed and
// the write path under test.
func (o Options) config(mode ipa.WriteMode, scheme ipa.Scheme, flash ipa.FlashMode) ipa.Config {
	cfg := o.Profile.config()
	cfg.WriteMode, cfg.Scheme, cfg.FlashMode, cfg.Seed = mode, scheme, flash, o.Seed
	return cfg
}

// baseline is the traditional out-of-place [0×0] arm on full MLC that every
// comparison measures IPA against.
func (o Options) baseline() ipa.Config { return o.config(ipa.Traditional, ipa.Scheme{}, ipa.MLCFull) }

// native is the IPA arm with the write_delta command, scheme N×M.
func (o Options) native(flash ipa.FlashMode) ipa.Config {
	return o.config(ipa.IPANativeFlash, o.scheme(), flash)
}

// DeviceProfile is the sizing of the simulated device: a scaled-down
// OpenSSD-like device that is large enough for GC to matter but small
// enough to simulate quickly.
type DeviceProfile struct {
	PageSize        int
	Blocks          int
	PagesPerBlock   int
	BufferPoolPages int
}

// DefaultProfile is the device of the full-size runs in EXPERIMENTS.md.
var DefaultProfile = DeviceProfile{
	PageSize:        8 * 1024,
	Blocks:          128,
	PagesPerBlock:   64,
	BufferPoolPages: 128,
}

// SmallProfile is the reduced sizing of -quick runs, unit tests and Go
// benchmarks. It is large enough that the pSLC configurations (which halve
// the capacity) still have ample headroom over the scale-1/2 data sets.
var SmallProfile = DeviceProfile{
	PageSize:        4 * 1024,
	Blocks:          96,
	PagesPerBlock:   32,
	BufferPoolPages: 48,
}

// withPool is p with a buffer pool of pages pages.
func (p DeviceProfile) withPool(pages int) DeviceProfile {
	p.BufferPoolPages = pages
	return p
}

// config is the sizing part of the engine configuration.
func (p DeviceProfile) config() ipa.Config {
	return ipa.Config{
		PageSize:        p.PageSize,
		Blocks:          p.Blocks,
		PagesPerBlock:   p.PagesPerBlock,
		BufferPoolPages: p.BufferPoolPages,
	}
}

// Result is what one arm measured: the engine's counters over its measured
// phase, final flush included, and the phase's own count of committed and
// aborted transactions. Every figure an experiment prints derives from it.
type Result struct {
	ipa.Stats
	Run workload.RunResult
}

// Arm is one labelled arm of an experiment's comparison.
type Arm struct {
	Label string
	Result
}

// NewWorkload instantiates the driver called name — "tpcb", "tpcc",
// "tatp", "linkbench", a YCSB letter ("ycsb-a" .. "ycsb-f"), or a
// secondary-index variant: "tatpsec" (sub_nbr lookups), "linkbenchsec"
// (assoc-by-id2) or "secchurn" (isolated secondary-entry churn) — at scale:
// TPC-B branches, TPC-C warehouses, else units of 5,000 subscribers, nodes
// or records (10,000 rows for secchurn).
func NewWorkload(name string, scale int, seed int64) (workload.Workload, error) {
	if scale <= 0 {
		scale = 1
	}
	switch name {
	case "tpcb":
		return workload.NewTPCB(workload.TPCBConfig{Branches: scale}), nil
	case "tpcc":
		return workload.NewTPCC(workload.TPCCConfig{Warehouses: scale}), nil
	case "tatp", "tatpsec":
		return workload.NewTATP(workload.TATPConfig{Subscribers: scale * 5000, Seed: seed, SecondaryLookups: name == "tatpsec"}), nil
	case "linkbench", "linkbenchsec":
		return workload.NewLinkBench(workload.LinkBenchConfig{Nodes: scale * 5000, Seed: seed, AssocByID2: name == "linkbenchsec"}), nil
	case "secchurn":
		return workload.NewSecondaryChurn(workload.SecondaryChurnConfig{Rows: scale * 10000}), nil
	case "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f":
		return workload.NewYCSB(workload.YCSBConfig{Letter: name[len("ycsb-")], Records: scale * 5000, Seed: seed})
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
}

// Run measures one arm: o.Ops transactions of workload wl (see
// NewWorkload) at o's scale and seed, on the engine configuration cfg.
func Run(o Options, wl string, cfg ipa.Config) (Result, error) { return run(o, wl, cfg, nil) }

// run is Run with access to the database after the final flush (the IPL
// comparison reads the eviction trace there).
func run(o Options, wl string, cfg ipa.Config, after func(*ipa.DB)) (Result, error) {
	w, err := NewWorkload(wl, o.Scale, o.Seed)
	if err != nil {
		return Result{}, err
	}
	return measure(wl, cfg, w.Load, transactions(w, o.Ops, o.Seed+1), after)
}

// transactions is the measured phase of a workload arm: ops committed
// transactions of w, drawn from seed.
func transactions(w workload.Workload, ops int, seed int64) func(*ipa.DB) (workload.RunResult, error) {
	return func(db *ipa.DB) (workload.RunResult, error) {
		return workload.Run(db, w, workload.RunOptions{MaxOps: ops, Seed: seed})
	}
}

// measure is the one protocol every arm runs by: open a fresh database with
// cfg, load it, flush, reset the counters, run the measured phase and flush
// again, so the counters cover the phase and the write-back it left behind.
// after, if set, sees the database before it closes.
func measure(name string, cfg ipa.Config, load func(*ipa.DB) error, phase func(*ipa.DB) (workload.RunResult, error), after func(*ipa.DB)) (Result, error) {
	db, err := ipa.Open(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	defer db.Close()
	if err := load(db); err != nil {
		return Result{}, fmt.Errorf("bench: %s load: %w", name, err)
	}
	if err := db.FlushAll(); err != nil {
		return Result{}, fmt.Errorf("bench: %s load: %w", name, err)
	}
	db.ResetStats()
	ran, err := phase(db)
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s run: %w", name, err)
	}
	if err := db.FlushAll(); err != nil {
		return Result{}, fmt.Errorf("bench: %s flush: %w", name, err)
	}
	if after != nil {
		after(db)
	}
	return Result{Stats: db.Stats(), Run: ran}, nil
}
