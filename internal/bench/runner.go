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
// cmd/ipabench iterates, and two drivers do the running — measure for the
// single-goroutine virtual-clock experiments, drive for the concurrent
// ones. Every experiment returns structured results and can render itself
// as a plain-text table comparable with the paper.
package bench

import (
	"fmt"
	"time"

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

// experiment describes one analytic run of workload wl on the given write
// path, sized and bounded by o.
func (o Options) experiment(name, wl string, mode ipa.WriteMode, scheme ipa.Scheme, flash ipa.FlashMode) Experiment {
	return Experiment{
		Name: name, Workload: wl, Scale: o.Scale,
		Mode: mode, Scheme: scheme, Flash: flash,
		Ops: o.Ops, DeviceProfile: o.Profile,
		Analytic: true, Seed: o.Seed,
	}
}

// baseline is the traditional out-of-place [0×0] run on full MLC that every
// comparison measures IPA against.
func (o Options) baseline(name, wl string) Experiment {
	return o.experiment(name, wl, ipa.Traditional, ipa.Scheme{}, ipa.MLCFull)
}

// native is the IPA run with the write_delta command, scheme N×M.
func (o Options) native(name, wl string, flash ipa.FlashMode) Experiment {
	return o.experiment(name, wl, ipa.IPANativeFlash, o.scheme(), flash)
}

// nativeConfig is the engine configuration of the experiments that drive
// the database themselves: IPA native Flash [N×M] on o's device.
func (o Options) nativeConfig(flash ipa.FlashMode) ipa.Config {
	cfg := o.Profile.config()
	cfg.WriteMode, cfg.Scheme, cfg.FlashMode, cfg.Seed = ipa.IPANativeFlash, o.scheme(), flash, o.Seed
	return cfg
}

// Experiment describes one benchmark run.
type Experiment struct {
	// Name labels the run in reports.
	Name string
	// Workload selects the driver: "tpcb", "tpcc", "tatp", "linkbench",
	// a YCSB letter ("ycsb-a" .. "ycsb-f"), or a secondary-index variant
	// — "tatpsec" (sub_nbr lookups), "linkbenchsec" (assoc-by-id2) or
	// "secchurn" (isolated secondary-entry churn).
	Workload string
	// Scale is the workload scale factor (branches, warehouses,
	// subscribers/10000, nodes/10000 depending on the driver).
	Scale int

	// Mode, Scheme and Flash configure the write path under test.
	Mode   ipa.WriteMode
	Scheme ipa.Scheme
	Flash  ipa.FlashMode
	// IndexScheme overrides the N×M scheme of index entry pages (zero
	// inherits Scheme); see ipa.Config.IndexScheme.
	IndexScheme ipa.Scheme

	// Ops bounds the measurement by committed transactions; it must be
	// positive.
	Ops int

	// DeviceProfile sizes the simulated device.
	DeviceProfile

	// Analytic enables per-eviction byte accounting; TraceEvictions
	// records the trace needed for the IPL comparison.
	Analytic       bool
	TraceEvictions bool

	Seed int64
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

// Result bundles the outcome of one experiment.
type Result struct {
	Experiment Experiment
	Stats      ipa.Stats
	Run        workload.RunResult
	LoadTime   time.Duration // virtual time consumed by the load phase
}

// Throughput returns committed transactions per virtual second.
func (r Result) Throughput() float64 { return r.Stats.Throughput() }

// NewWorkload instantiates the driver named by the experiment.
func NewWorkload(name string, scale int, seed int64) (workload.Workload, error) {
	if scale <= 0 {
		scale = 1
	}
	switch name {
	case "tpcb":
		return workload.NewTPCB(workload.TPCBConfig{Branches: scale, Seed: seed}), nil
	case "tpcc":
		return workload.NewTPCC(workload.TPCCConfig{Warehouses: scale, Seed: seed}), nil
	case "tatp", "tatpsec":
		return workload.NewTATP(workload.TATPConfig{Subscribers: scale * 5000, Seed: seed, SecondaryLookups: name == "tatpsec"}), nil
	case "linkbench", "linkbenchsec":
		return workload.NewLinkBench(workload.LinkBenchConfig{Nodes: scale * 5000, Seed: seed, AssocByID2: name == "linkbenchsec"}), nil
	case "secchurn":
		return workload.NewSecondaryChurn(workload.SecondaryChurnConfig{Rows: scale * 10000, Seed: seed}), nil
	case "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f":
		return workload.NewYCSB(workload.YCSBConfig{Letter: name[len("ycsb-")], Records: scale * 5000, Seed: seed})
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
}

// Run executes one experiment: open a fresh database, load the workload,
// reset the counters and run the measurement phase.
func Run(e Experiment) (Result, error) { return run(e, nil) }

// run is Run with access to the database after the measurement (e.g. to
// fetch the eviction trace) and before it closes.
func run(e Experiment, after func(*ipa.DB)) (Result, error) {
	w, err := NewWorkload(e.Workload, e.Scale, e.Seed)
	if err != nil {
		return Result{}, err
	}
	cfg := e.config()
	cfg.WriteMode, cfg.Scheme, cfg.IndexScheme, cfg.FlashMode = e.Mode, e.Scheme, e.IndexScheme, e.Flash
	cfg.Analytic, cfg.TraceEvictions, cfg.Seed = e.Analytic, e.TraceEvictions, e.Seed
	ro := workload.RunOptions{MaxOps: e.Ops, Seed: e.Seed + 1}
	res, err := measure(e.Name, cfg, w, ro, after)
	res.Experiment = e
	return res, err
}

// measure is the single-goroutine driver every deterministic experiment
// shares: open a fresh database, load w, reset the counters, run w within
// ro's bounds and flush.
func measure(name string, cfg ipa.Config, w workload.Workload, ro workload.RunOptions, after func(*ipa.DB)) (Result, error) {
	db, err := ipa.Open(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	defer db.Close()
	loadStart := db.Now()
	if err := w.Load(db); err != nil {
		return Result{}, fmt.Errorf("bench: %s load: %w", name, err)
	}
	loadTime := db.Now() - loadStart
	db.ResetStats()
	ran, err := workload.Run(db, w, ro)
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s run: %w", name, err)
	}
	if err := db.FlushAll(); err != nil {
		return Result{}, fmt.Errorf("bench: %s flush: %w", name, err)
	}
	if after != nil {
		after(db)
	}
	return Result{Stats: db.Stats(), Run: ran, LoadTime: loadTime}, nil
}
