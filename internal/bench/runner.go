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
// Every experiment returns structured results and can render itself as a
// plain-text table comparable with the paper.
package bench

import (
	"fmt"
	"time"

	"ipa"
	"ipa/internal/workload"
)

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

	// Ops bounds the measurement by committed transactions; Duration
	// bounds it by virtual device time. At least one must be set.
	Ops      int
	Duration time.Duration

	// Device sizing (zero values select the defaults of DeviceProfile).
	PageSize        int
	Blocks          int
	PagesPerBlock   int
	BufferPoolPages int

	// Analytic enables per-eviction byte accounting; TraceEvictions
	// records the trace needed for the IPL comparison.
	Analytic       bool
	TraceEvictions bool

	Seed int64
}

// DeviceProfile selects the default device sizing of the harness: a scaled-
// down OpenSSD-like device that is large enough for GC to matter but small
// enough to simulate quickly.
type DeviceProfile struct {
	PageSize        int
	Blocks          int
	PagesPerBlock   int
	BufferPoolPages int
}

// DefaultProfile is used when an Experiment leaves the sizing fields zero.
var DefaultProfile = DeviceProfile{
	PageSize:        8 * 1024,
	Blocks:          128,
	PagesPerBlock:   64,
	BufferPoolPages: 128,
}

// SmallProfile is a reduced sizing for unit tests and Go benchmarks. It is
// large enough that the pSLC configurations (which halve the capacity)
// still have ample headroom over the scale-1/2 data sets.
var SmallProfile = DeviceProfile{
	PageSize:        4 * 1024,
	Blocks:          96,
	PagesPerBlock:   32,
	BufferPoolPages: 48,
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
		cfg := workload.DefaultTPCBConfig()
		cfg.Branches = scale
		cfg.Seed = seed
		return workload.NewTPCB(cfg), nil
	case "tpcc":
		cfg := workload.DefaultTPCCConfig()
		cfg.Warehouses = scale
		cfg.Seed = seed
		return workload.NewTPCC(cfg), nil
	case "tatp", "tatpsec":
		cfg := workload.DefaultTATPConfig()
		cfg.Subscribers = scale * 5000
		cfg.Seed = seed
		cfg.SecondaryLookups = name == "tatpsec"
		return workload.NewTATP(cfg), nil
	case "linkbench", "linkbenchsec":
		cfg := workload.DefaultLinkBenchConfig()
		cfg.Nodes = scale * 5000
		cfg.Seed = seed
		cfg.AssocByID2 = name == "linkbenchsec"
		return workload.NewLinkBench(cfg), nil
	case "secchurn":
		cfg := workload.DefaultSecondaryChurnConfig()
		cfg.Rows = scale * 10000
		cfg.Seed = seed
		return workload.NewSecondaryChurn(cfg), nil
	case "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f":
		cfg := workload.DefaultYCSBConfig(name[len("ycsb-")])
		cfg.Records = scale * 5000
		cfg.Seed = seed
		return workload.NewYCSB(cfg)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
}

// config builds the engine configuration for an experiment.
func (e Experiment) config() ipa.Config {
	p := DefaultProfile
	if e.PageSize > 0 {
		p.PageSize = e.PageSize
	}
	if e.Blocks > 0 {
		p.Blocks = e.Blocks
	}
	if e.PagesPerBlock > 0 {
		p.PagesPerBlock = e.PagesPerBlock
	}
	if e.BufferPoolPages > 0 {
		p.BufferPoolPages = e.BufferPoolPages
	}
	return ipa.Config{
		PageSize:        p.PageSize,
		Blocks:          p.Blocks,
		PagesPerBlock:   p.PagesPerBlock,
		BufferPoolPages: p.BufferPoolPages,
		WriteMode:       e.Mode,
		Scheme:          e.Scheme,
		IndexScheme:     e.IndexScheme,
		FlashMode:       e.Flash,
		Analytic:        e.Analytic,
		TraceEvictions:  e.TraceEvictions,
		Seed:            e.Seed,
	}
}

// ApplyProfile fills the sizing fields of e from p (explicit fields win).
func (e Experiment) ApplyProfile(p DeviceProfile) Experiment {
	if e.PageSize == 0 {
		e.PageSize = p.PageSize
	}
	if e.Blocks == 0 {
		e.Blocks = p.Blocks
	}
	if e.PagesPerBlock == 0 {
		e.PagesPerBlock = p.PagesPerBlock
	}
	if e.BufferPoolPages == 0 {
		e.BufferPoolPages = p.BufferPoolPages
	}
	return e
}

// Run executes one experiment: open a fresh database, load the workload,
// reset the counters and run the measurement phase.
func Run(e Experiment) (Result, error) { return RunWithDB(e, nil) }

// loadRows fills tbl with n copies of row under the keys 0..n-1, through
// the transactional loader.
func loadRows(db *ipa.DB, tbl *ipa.Table, n int, row []byte) error {
	ld := workload.NewLoader(db)
	for k := int64(0); k < int64(n); k++ {
		if err := ld.Insert(tbl, k, row); err != nil {
			return err
		}
	}
	return ld.Commit()
}

// RunWithDB is like Run but gives the caller access to the database after
// the measurement (e.g. to fetch the eviction trace).
func RunWithDB(e Experiment, use func(db *ipa.DB, res Result) error) (Result, error) {
	if e.Ops <= 0 && e.Duration <= 0 {
		return Result{}, fmt.Errorf("bench: experiment %q needs Ops or Duration", e.Name)
	}
	db, err := ipa.Open(e.config())
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s: %w", e.Name, err)
	}
	defer db.Close()
	w, err := NewWorkload(e.Workload, e.Scale, e.Seed)
	if err != nil {
		return Result{}, err
	}
	loadStart := db.Now()
	if err := w.Load(db); err != nil {
		return Result{}, fmt.Errorf("bench: %s load: %w", e.Name, err)
	}
	loadTime := db.Now() - loadStart
	db.ResetStats()
	run, err := workload.Run(db, w, workload.RunOptions{MaxOps: e.Ops, Duration: e.Duration, Seed: e.Seed + 1})
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s run: %w", e.Name, err)
	}
	if err := db.FlushAll(); err != nil {
		return Result{}, fmt.Errorf("bench: %s flush: %w", e.Name, err)
	}
	res := Result{Experiment: e, Stats: db.Stats(), Run: run, LoadTime: loadTime}
	if use != nil {
		if err := use(db, res); err != nil {
			return res, err
		}
	}
	return res, nil
}
