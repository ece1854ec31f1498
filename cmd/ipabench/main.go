// Command ipabench regenerates the tables and figures of the paper's
// evaluation on the simulated Flash device.
//
// Usage:
//
//	ipabench -exp table1       # Table 1: TPC-B, 0x0 vs 2x4 pSLC vs 2x4 odd-MLC
//	ipabench -exp fig1         # Figure 1: DBMS write-amplification analysis
//	ipabench -exp oltp         # OLTP suite: throughput / GC reduction claims, Flash lifetime estimate
//	ipabench -exp ipl          # IPA vs In-Page Logging comparison
//	ipabench -exp scenarios    # demo scenarios 1/2/3 side by side
//	ipabench -exp interference # program-interference ablation (MLC modes)
//	ipabench -exp sweep        # N×M scheme ablation
//	ipabench -exp concurrent   # concurrency scaling (sharded pool, group commit)
//	ipabench -exp readmix      # read-skew ladder: MVCC snapshot reads vs 2PL locked reads
//	ipabench -exp chips        # chip scaling (per-chip FTL partitions)
//	ipabench -exp crash        # power-cut torture: crash at every fault point
//	ipabench -exp index        # index maintenance: IPA vs out-of-place entry pages
//	ipabench -exp secondary    # secondary-index maintenance: IPA vs out-of-place
//	ipabench -exp ycsb         # YCSB A-F, cache-sized and 8x larger-than-memory
//	ipabench -exp all
//
// The experiments, their titles and their defaults live in one registry
// (bench.Specs); this command only parses flags and iterates it. The -quick
// flag shrinks every experiment so the whole suite finishes in about two
// minutes; without it the defaults match the full runs documented in
// EXPERIMENTS.md (which also maps each experiment to the paper's tables and
// figures). With -json -out FILE the run additionally writes one structured
// JSON object per experiment, which CI archives as a build artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ipa/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ipabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		set     bench.Options
		exp     = fs.String("exp", "all", "experiment: "+strings.Join(bench.Names(), ", ")+", all")
		quick   = fs.Bool("quick", false, "shrink all experiments for a fast demo run")
		jsonOut = fs.Bool("json", false, "collect machine-readable results")
		outFile = fs.String("out", "", "file for -json results (default bench.json)")
	)
	fs.IntVar(&set.Scale, "scale", 0, "workload scale factor (0 = experiment default)")
	fs.IntVar(&set.Ops, "ops", 0, "bound runs by committed transactions (0 = experiment default)")
	fs.Int64Var(&set.Seed, "seed", bench.Base.Seed, "random seed")
	fs.IntVar(&set.N, "n", bench.Base.N, "IPA scheme parameter N")
	fs.IntVar(&set.M, "m", bench.Base.M, "IPA scheme parameter M")
	fs.IntVar(&set.Threads, "threads", 0, "concurrent, readmix and chips: fixed client count (0 = experiment default)")
	fs.IntVar(&set.Chips, "chips", 0, "chips and crash experiments: fixed chip count (0 = experiment default)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// Zero leaves an experiment's default in place, so a value the
	// defaults would silently replace is a usage error.
	if set.Ops < 0 || set.Scale < 0 || set.Threads < 0 || set.Chips < 0 || set.Seed == 0 || set.N < 1 || set.M < 1 {
		fmt.Fprintf(stderr, "ipabench: -ops (%d), -scale (%d), -threads (%d) and -chips (%d) must not be negative, -seed (%d) not 0, -n (%d) and -m (%d) at least 1\n",
			set.Ops, set.Scale, set.Threads, set.Chips, set.Seed, set.N, set.M)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "ipabench: %v\n", err)
		return 1
	}
	specs, err := bench.Select(*exp)
	if err != nil {
		return fail(err)
	}

	report := &bench.Report{}
	for _, s := range specs {
		o := s.Resolve(*quick, set)
		fmt.Fprintf(stdout, "== %s ==\n", s.Title)
		start := time.Now()
		res, err := s.Run(o)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", s.Title, err))
		}
		res.Write(stdout)
		report.Add(s.Name, o, res)
		if f, ok := res.(interface{ Failed() bool }); ok && f.Failed() {
			return fail(fmt.Errorf("%s: recovery invariants violated", s.Title))
		}
		fmt.Fprintf(stdout, "(completed in %s wall-clock)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut {
		path := *outFile
		if path == "" {
			path = "bench.json"
		}
		if err := report.WriteFile(path); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %d experiment results to %s\n", len(report.Entries), path)
	}
	return 0
}
