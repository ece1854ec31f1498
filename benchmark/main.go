// Command benchmark is the repository's yardstick: six workloads over the
// public API of the engine, every figure labelled with the clock it is on.
// See README.md; BENCHMARK.json at the repository root is its contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: mem_rw, flash_rw, flash_trad, flash_read, wire_rt or wire_pipe")
	seed := flag.Uint64("seed", 1, "seed of the operation stream")
	seconds := flag.Int("seconds", 8, "nominal length of the measured phase; the operation count is a fixed multiple of it")
	trace := flag.Int("trace", 0, "1 = traced run: spans, layer probes, budget table and the per-layer metrics")
	aa := flag.Int("aa", 0, "run every workload 2×N times, alternating two sets, and compare the sets")
	collect := flag.Int("collect", 0, "run every workload N times (seeds seed…seed+N-1) and write the values to -out")
	outPath := flag.String("out", "", "file -collect writes, for -compare")
	compare := flag.Bool("compare", false, "compare two -collect files: benchmark -compare old.json new.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			os.Exit(2)
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *aa > 0:
		err = runAA(os.Stdout, *aa, *seed, *seconds)
	case *collect > 0:
		err = runCollect(*collect, *seed, *seconds, *outPath)
	default:
		err = runOne(*name, *seed, *seconds, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its metrics by name and unit, then
// the result line. It fails if any operation failed or any row read back
// wrong, before or after the reopen.
func runOne(name string, seed uint64, seconds int, trace bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	o := runOpts{w: w, seed: seed, seconds: seconds, setups: setupsPerRun}
	if trace {
		// setup_s comes from untraced runs; one set-up is enough here, and
		// leaves the time to the probes.
		o.trace, o.setups = true, 1
		o.spanPath = filepath.Join(".bench_build", "spans", name+".jsonl")
	}
	res, err := measure(o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations and read-backs failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// measure runs the workload and turns the outcome into the result line,
// printing the human-readable report on the way.
func measure(o runOpts) (*result, error) {
	out, err := run(o)
	if err != nil {
		return nil, err
	}
	defs, values := endToEnd, map[string]float64(nil)
	fmt.Printf("workload %s  seed %d  %d operations (%d gets, %d updates, %d checkpoints)  closed loop, 1 client\n",
		o.w.name, o.seed, out.ops, out.gets, out.updates, len(out.r.ckptNs))
	fmt.Printf("latency samples: %d\n", out.r.lat.n)
	if o.trace {
		probes, err := runProbes()
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		var rows []budgetRow
		values, rows = out.perLayer(probes)
		defs = perLayer
		printBudget(os.Stdout, o.w.name, rows, out.opNs(), values["budget.unattributed_share"])
		printSpans(os.Stdout, out.r.tr.summarize())
		if o.spanPath != "" {
			fmt.Printf("spans: %d written to %s\n", len(out.r.tr.spans), o.spanPath)
		}
	} else {
		values = out.endToEnd()
	}
	printMetrics(os.Stdout, defs, values)
	res := &result{
		Correct:   out.r.failed == 0 && out.integrityErr == nil,
		Attempted: out.r.attempted,
		Failed:    out.r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if out.integrityErr != nil {
		fmt.Println("integrity after reopen:", out.integrityErr)
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}
