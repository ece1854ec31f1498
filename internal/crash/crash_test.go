package crash

import (
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
	if err := d.run(o.Ops, o.Readers); err != nil {
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
	// The periodic checkpoints must actually run during the sweep, some
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
// transactions instead — which is what a sweep sees when its readers make
// the pre-crash run issue fewer device operations than the enumeration.
func TestUntrippedPlanStaysQuietAfterRecovery(t *testing.T) {
	o := DefaultOptions()
	o.Ops = 30
	o.Readers = -1 // exact operation count: the run ends one short of the point
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
