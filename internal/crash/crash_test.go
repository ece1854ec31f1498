package crash

import (
	"fmt"
	"runtime"
	"testing"

	"ipa"
)

// TestCleanCrashRecovers covers the "kill -9 without any device fault"
// case: crash after a completed run, reopen, verify.
func TestCleanCrashRecovers(t *testing.T) {
	o := DefaultOptions()
	o.Ops = 60
	d, err := newDriver(o.DB, o)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := d.load(); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := d.run(o.Seed, o.Ops, o.Readers); err != nil {
		t.Fatalf("run: %v", err)
	}
	if d.audits == 0 {
		t.Fatalf("snapshot readers completed no audit pass")
	}
	img := d.db.Crash()
	db2, err := ipa.Reopen(img)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if err := verify(db2, o, d.ora); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestEnumerateCountsFaultPoints sanity-checks the fault-point enumeration.
func TestEnumerateCountsFaultPoints(t *testing.T) {
	o := DefaultOptions()
	o.Ops = 30
	total, err := Enumerate(o)
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if total == 0 {
		t.Fatalf("no fault points enumerated")
	}
	t.Logf("fault points for %d transactions: %d", o.Ops, total)
}

// TestCrashSweepSample runs a bounded, evenly spread sample of the
// exhaustive sweep in every fault mode (the CI quick gate). The exhaustive
// sweep runs via `ipabench -exp crash`.
func TestCrashSweepSample(t *testing.T) {
	o := DefaultOptions()
	o.Ops = 60
	o.Sample = 12
	if testing.Short() {
		o.Sample = 4
	}
	res, err := Sweep(o)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, f := range res.Failures {
		t.Errorf("invariant violated: %s", f)
	}
	if res.Crashes == 0 {
		t.Fatalf("sweep never crashed (%d runs over %d points)", res.Runs, res.FaultPoints)
	}
	// The automatic checkpoints must actually run during the sweep, some
	// crash points must land after one (so recovery starts from it, not
	// LSN 0), and every successful Reopen reports its cost.
	if res.Checkpoints == 0 {
		t.Fatalf("sweep took no fuzzy checkpoints")
	}
	if !res.CkptCovered {
		t.Fatalf("no crash point fired after a checkpoint completed")
	}
	if res.Recovery.Recoveries == 0 {
		t.Fatalf("sweep recorded no recovery cost")
	}
	if res.Recovery.FromCheckpoint == 0 {
		t.Fatalf("no recovery started from a checkpoint (%d recoveries)", res.Recovery.Recoveries)
	}
	t.Logf("points=%d runs=%d crashes=%d gcCovered=%v ckpts=%d fromCkpt=%d/%d redone=%d",
		res.FaultPoints, res.Runs, res.Crashes, res.GCCovered, res.Checkpoints,
		res.Recovery.FromCheckpoint, res.Recovery.Recoveries, res.Recovery.RecordsRedone)
}

// TestUntrippedPlanStaysQuietAfterRecovery: a fault point the pre-crash run
// never reaches belongs to no operation. The plan must not stay armed
// through Crash and Reopen and cut the power under the post-recovery
// transactions instead.
func TestUntrippedPlanStaysQuietAfterRecovery(t *testing.T) {
	o := DefaultOptions()
	o.Ops = 30
	total, err := Enumerate(o)
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	for _, mode := range faultModes {
		out, err := RunPointDetail(o, total+1, mode)
		if err != nil {
			t.Fatalf("%v at point %d of %d: %v", mode, total+1, total, err)
		}
		if out.Tripped {
			t.Fatalf("%v: plan reports a fault the run never reached", mode)
		}
	}
}

// TestSweepIsDeterministic: writer and readers run on one goroutine from a
// seed, so a sweep is a function of its options at any GOMAXPROCS — the
// enumeration, every crash, checkpoint and audit, and the device side of
// every recovery — and the run at point K issues exactly the enumerated
// operations, so every sampled point trips.
func TestSweepIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, mode := range []ipa.WriteMode{ipa.Traditional, ipa.IPAConventionalSSD, ipa.IPANativeFlash} {
		o := DefaultOptions()
		o.DB.WriteMode = mode
		o.Ops, o.Sample = 60, 6
		var first Result
		for i, procs := range []int{1, 2, 4, 1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			res, err := Sweep(o)
			if err != nil {
				t.Fatalf("%s: sweep: %v", mode, err)
			}
			for _, f := range res.Failures {
				t.Errorf("%s: %s", mode, f)
			}
			if res.Crashes != res.Runs || res.Audits == 0 {
				t.Fatalf("%s: %d of %d runs crashed, %d audits passed", mode, res.Crashes, res.Runs, res.Audits)
			}
			res.Recovery.Wall = 0
			if i == 0 {
				first = res
			} else if fmt.Sprint(res) != fmt.Sprint(first) {
				t.Fatalf("%s at GOMAXPROCS %d:\n got %+v\nwant %+v", mode, procs, res, first)
			}
		}
		t.Logf("%s: points=%d runs=%d audits=%d ckpts=%d redone=%d", mode, first.FaultPoints, first.Runs,
			first.Audits, first.Checkpoints, first.Recovery.RecordsRedone)
	}
}
