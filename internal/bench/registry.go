package bench

import (
	"fmt"
	"io"
	"strings"

	"ipa/internal/crash"
)

// Outcome is what every experiment returns: a structured result (the JSON
// report marshals it as is) that renders itself as a plain-text table. An
// outcome with a `Failed() bool` method reporting true fails the run after
// it has been written.
type Outcome interface{ Write(io.Writer) }

// Spec is one registered experiment: its -exp name, the title printed above
// its table, its defaults, and its runner.
type Spec struct {
	Name  string
	Title string
	// Full holds the defaults of the full-size run in EXPERIMENTS.md that
	// differ from Base; Quick holds what -quick shrinks on top of them.
	Full, Quick Options

	run func(Options) (Outcome, error)
}

// Base is what every experiment starts from: the default device, the
// paper's 2×4 scheme and the seed of every documented run.
var Base = Options{Profile: DefaultProfile, N: 2, M: 4, Seed: 1}

// Specs returns the registry, in the order `-exp all` runs it. This table
// is the only place an experiment's flag-settable defaults are written.
func Specs() []Spec {
	indexFull, indexQuick := Options{Profile: IndexProfile, Scale: 1, Ops: 20000}, Options{Profile: indexQuickProfile, Ops: 4000}

	return []Spec{
		{Name: "table1", Title: "Table 1: TPC-B traditional vs IPA [2x4] pSLC / odd-MLC",
			// Full: 14831 is what the [0x0] arm committed in the 12 virtual
			// seconds that bounded this run before every bound became a
			// transaction count, so that column reads as it did then.
			// Quick: the small device halves its capacity in pSLC mode;
			// scale 1 keeps the TPC-B data set within it.
			Full: Options{Scale: 4, Ops: 14831}, Quick: Options{Scale: 1, Ops: 6000}, run: adapt(Table1)},
		{Name: "fig1", Title: "Figure 1: DBMS write-amplification",
			Full: Options{Scale: 2, Ops: 8000}, Quick: Options{Ops: 3000}, run: adapt(Figure1)},
		{Name: "oltp", Title: "OLTP suite: TPC-B / TPC-C / TATP",
			Full: Options{Scale: 2, Ops: 20000}, Quick: Options{Ops: 4000}, run: adapt(Suite)},
		{Name: "ipl", Title: "IPA vs In-Page Logging",
			Full: Options{Scale: 2, Ops: 8000}, Quick: Options{Ops: 3000}, run: adapt(IPLCompare)},
		{Name: "scenarios", Title: "Demonstration scenarios 1/2/3",
			Full: Options{Scale: 2, Ops: 8000}, Quick: Options{Scale: 1, Ops: 4000}, run: adapt(Scenarios)},
		{Name: "interference", Title: "Program interference on MLC Flash",
			Full: Options{Scale: 2, Ops: 6000}, Quick: Options{Scale: 1, Ops: 3000}, run: adapt(Interference)},
		{Name: "sweep", Title: "N×M scheme sweep",
			Full: Options{Scale: 2, Ops: 6000}, Quick: Options{Ops: 2000}, run: adapt(Sweep)},
		{Name: "concurrent", Title: "Concurrency scaling: sharded pool + group-commit WAL",
			Full: Options{Ops: 8000}, Quick: Options{Ops: 6000}, run: adapt(Concurrent)},
		{Name: "readmix", Title: "Read-skew ladder: MVCC snapshot reads vs 2PL locked reads",
			Full: Options{Ops: 4000, Threads: 8}, Quick: Options{Ops: 1500}, run: adapt(ReadMix)},
		{Name: "chips", Title: "Chip scaling: per-chip FTL partitions",
			Full: Options{Ops: 8000, Threads: 8}, Quick: Options{Ops: 4000}, run: adapt(Chips)},
		{Name: "crash", Title: "Power-cut torture: crash, recover, verify",
			Full: Options{Ops: crash.DefaultOptions().Ops}, Quick: Options{Ops: 120}, run: adapt(Crash)},
		{Name: "index", Title: "Index maintenance: IPA vs out-of-place entry pages",
			Full: indexFull, Quick: indexQuick, run: adapt(Index)},
		{Name: "secondary", Title: "Secondary indexes: IPA vs out-of-place entry pages",
			Full: indexFull, Quick: indexQuick, run: adapt(Secondary)},
		{Name: "ycsb", Title: "YCSB A-F: cache-sized vs larger-than-memory",
			Full: Options{Ops: 20000}, Quick: Options{Ops: 3000}, run: adapt(YCSB)},
	}
}

// adapt lifts a typed experiment function into the registry's signature.
func adapt[R Outcome](f func(Options) (R, error)) func(Options) (Outcome, error) {
	return func(o Options) (Outcome, error) { return f(o) }
}

// Defaults returns the options the experiment runs with when no flag but
// -quick is given.
func (s Spec) Defaults(quick bool) Options {
	o := Base.with(s.Full)
	if quick {
		o.Quick, o.Profile = true, SmallProfile
		o = o.with(s.Quick)
	}
	return o
}

// Resolve overlays the flags the user set (the non-zero fields of set) on
// the experiment's defaults.
func (s Spec) Resolve(quick bool, set Options) Options {
	return s.Defaults(quick).with(set)
}

// Validate reports why o cannot run the experiment.
func (s Spec) Validate(o Options) error {
	switch {
	case o.Ops <= 0:
		return fmt.Errorf("bench: %s needs -ops > 0", s.Name)
	case o.Profile.PageSize <= 0 || o.Profile.Blocks <= 0 || o.Profile.PagesPerBlock <= 0 || o.Profile.BufferPoolPages <= 0:
		return fmt.Errorf("bench: %s: incomplete device profile %+v", s.Name, o.Profile)
	}
	return nil
}

// Run validates o and runs the experiment.
func (s Spec) Run(o Options) (Outcome, error) {
	if err := s.Validate(o); err != nil {
		return nil, err
	}
	return s.run(o)
}

// Names lists the registered experiment names in registry order.
func Names() []string {
	var names []string
	for _, s := range Specs() {
		names = append(names, s.Name)
	}
	return names
}

// Select resolves an -exp argument to the specs it runs: every spec, in
// registry order, for "all", otherwise the named one.
func Select(exp string) ([]Spec, error) {
	specs := Specs()
	if exp == "all" {
		return specs, nil
	}
	for _, s := range specs {
		if s.Name == exp {
			return []Spec{s}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (have %s, all)", exp, strings.Join(Names(), ", "))
}
