// Command ipachaos runs a chaos session against a live ipaserver stack:
// it boots the engine and the wire front end in-process, drives transfer
// traffic over TCP, injects latency spikes, chip stalls and wall-clock
// power cuts, and audits ledger conservation, index integrity and
// commit-timestamp monotonicity on one tick loop while they fire. Exit
// status 1 means an invariant was violated — the output lists each
// violation.
//
//	ipachaos                          # 15s, 3 power cuts
//	ipachaos -quick                   # CI smoke: ~4s, 2 cuts
//	ipachaos -duration 1m -cuts 10 -workers 8
//	ipachaos -json -out chaos.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ipa/internal/chaos"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ipachaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := chaos.DefaultOptions()
	fs.DurationVar(&o.Duration, "duration", o.Duration, "session length")
	fs.IntVar(&o.PowerCuts, "cuts", o.PowerCuts, "scheduled power cuts")
	fs.IntVar(&o.Workers, "workers", o.Workers, "wire transfer connections")
	fs.IntVar(&o.Accounts, "accounts", o.Accounts, "ledger size")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "workload seed")
	var (
		quick   = fs.Bool("quick", false, "short CI session (~4s, 2 cuts)")
		jsonOut = fs.Bool("json", false, "emit the report as JSON")
		out     = fs.String("out", "", "also write the JSON report to this file")
		quiet   = fs.Bool("q", false, "suppress progress lines")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if o.Duration <= 0 || o.Workers <= 0 || o.Accounts <= 0 || o.PowerCuts < 0 {
		fmt.Fprintf(stderr, "ipachaos: -duration (%s), -workers (%d) and -accounts (%d) must be positive, -cuts (%d) not negative\n",
			o.Duration, o.Workers, o.Accounts, o.PowerCuts)
		return 2
	}
	if *quick {
		var explicit []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "duration" || f.Name == "cuts" {
				explicit = append(explicit, "-"+f.Name)
			}
		})
		if len(explicit) > 0 {
			fmt.Fprintf(stderr, "ipachaos: -quick sets -duration and -cuts itself; drop %s or -quick\n", strings.Join(explicit, " and "))
			return 2
		}
		o.Duration = 4 * time.Second
		o.PowerCuts = 2
		o.AuditEvery = 120 * time.Millisecond
	}
	if !*quiet && !*jsonOut {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	rep, err := chaos.Run(o)
	if err != nil {
		fmt.Fprintf(stderr, "ipachaos: %v\n", err)
		return 2
	}

	if *out != "" {
		buf, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "ipachaos: write %s: %v\n", *out, err)
			return 2
		}
	}
	if *jsonOut {
		buf, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Fprintln(stdout, string(buf))
	} else {
		fmt.Fprintf(stdout, "chaos: %s wall, %d transfers (%d conflicts, %d retries, %d reconnects)\n",
			rep.Wall.Round(time.Millisecond), rep.Ops, rep.Conflicts, rep.Retries, rep.Reconnects)
		fmt.Fprintf(stdout, "chaos: %d power cuts, %d WAL records redone\n",
			rep.PowerCuts, rep.RecoveryRedos)
		fmt.Fprintf(stdout, "chaos: seed %d: %d audits, %d integrity passes; %d spiked ops, %d stalled ops\n",
			rep.Seed, rep.Audits, rep.VerifyPasses, rep.SpikedOps, rep.StalledOps)
	}
	if rep.Failed() {
		fmt.Fprintf(stderr, "ipachaos: %d INVARIANT VIOLATIONS\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintf(stderr, "  - %s\n", v)
		}
		return 1
	}
	if !*jsonOut {
		fmt.Fprintln(stdout, "chaos: all invariants held")
	}
	return 0
}
