package bench

import (
	"fmt"
	"io"
	"time"

	"ipa"
	"ipa/internal/crash"
)

// crashSample bounds the fault points tested per fault mode: 0 is the
// exhaustive sweep of every enumerated point, -quick takes a bounded,
// evenly spread sample.
func crashSample(quick bool) int { return pick(quick, 0, 12) }

// CrashRow is the outcome of one write path's sweep, including the
// aggregated time-to-recover of every successful Reopen.
type CrashRow struct {
	Mode ipa.WriteMode `json:"mode"`
	crash.Result
}

// CrashResult is the full torture outcome.
type CrashResult struct {
	Rows []CrashRow
}

// Failed reports whether any write path violated a recovery invariant.
func (r CrashResult) Failed() bool {
	for _, row := range r.Rows {
		if row.Failed() {
			return true
		}
	}
	return false
}

// Crash runs the crash-torture experiment: a deterministic power-cut sweep
// of o.Ops transactions across every write path, on internal/crash's small
// device with o.Chips chips (0 = its single chip).
func Crash(o Options) (CrashResult, error) {
	var out CrashResult
	for _, mode := range []ipa.WriteMode{ipa.Traditional, ipa.IPAConventionalSSD, ipa.IPANativeFlash} {
		co := crash.DefaultOptions()
		co.DB.WriteMode = mode
		if o.Chips > 0 {
			co.DB.Chips = o.Chips
		}
		co.Ops, co.Seed, co.Sample = o.Ops, o.Seed, crashSample(o.Quick)
		res, err := crash.Sweep(co)
		if err != nil {
			return out, fmt.Errorf("bench: crash sweep (%s): %w", mode, err)
		}
		out.Rows = append(out.Rows, CrashRow{mode, res})
	}
	return out, nil
}

// Write renders the torture outcome, including the mean time-to-recover.
func (r CrashResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Power-cut torture: crash at every fault point, reopen, verify\n")
	fmt.Fprintf(w, "%-14s %12s %10s %10s %10s %10s %10s\n",
		"write path", "fault points", "runs", "crashes", "gc hit", "ckpt hit", "failures")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %12d %10d %10d %10v %10v %10d\n",
			row.Mode, row.FaultPoints, row.Runs, row.Crashes, row.GCCovered, row.CkptCovered, len(row.Failures))
	}
	fmt.Fprintf(w, "Time-to-recover (mean per Reopen):\n")
	fmt.Fprintf(w, "%-14s %12s %12s %12s %14s %14s %14s\n",
		"write path", "recoveries", "from ckpt", "wall", "virtual", "pages scanned", "records redone")
	for _, row := range r.Rows {
		rec := row.Recovery
		if rec.Recoveries == 0 {
			continue
		}
		n := time.Duration(rec.Recoveries)
		fmt.Fprintf(w, "%-14s %12d %12d %12s %14s %14.0f %14.1f\n",
			row.Mode, rec.Recoveries, rec.FromCheckpoint,
			(rec.Wall / n).Round(time.Microsecond), (rec.Virtual / n).Round(time.Microsecond),
			float64(rec.PagesScanned)/float64(rec.Recoveries),
			float64(rec.RecordsRedone)/float64(rec.Recoveries))
	}
	for _, row := range r.Rows {
		for _, f := range row.Failures {
			fmt.Fprintf(w, "FAIL [%s] %s\n", row.Mode, f)
		}
	}
}
