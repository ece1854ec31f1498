package chaos

import (
	"strings"
	"testing"
	"time"

	"ipa"
)

// short returns a session config sized for CI: a small device, a few
// seconds of wall time, every fault class enabled and two power cuts.
func short() Options {
	o := DefaultOptions()
	o.Duration = 4 * time.Second
	o.PowerCuts = 2
	o.Workers = 3
	// Larger than the 64-page pool (~35 tuples/page → ~120 heap pages):
	// transfers continuously miss, evict and program, so the spike and
	// stall injectors see a steady device-operation stream.
	o.Accounts = 4096
	o.AuditEvery = 120 * time.Millisecond
	o.VerifyEvery = 600 * time.Millisecond
	o.SpikeEvery = 900 * time.Millisecond
	o.SpikeLen = 80 * time.Millisecond
	o.StallEvery = 700 * time.Millisecond
	o.StallLen = 60 * time.Millisecond
	o.Engine = ipa.Config{
		PageSize:        4096,
		Blocks:          96,
		PagesPerBlock:   32,
		BufferPoolPages: 64,
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
		Chips:           4,
	}
	return o
}

// TestChaosSession is the harness's own end-to-end check: a short session
// with live traffic, latency spikes, chip stalls and two wall-clock power
// cuts must finish with zero invariant violations and must actually have
// exercised each fault class and each checker.
func TestChaosSession(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos session needs wall-clock time")
	}
	o := short()
	o.Logf = t.Logf
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.PowerCuts != o.PowerCuts || rep.Restarts != o.PowerCuts {
		t.Errorf("power cuts %d restarts %d, want %d each", rep.PowerCuts, rep.Restarts, o.PowerCuts)
	}
	if rep.Ops == 0 {
		t.Error("no transfers committed")
	}
	if rep.Reconnects == 0 {
		t.Error("no reconnects — power cuts did not interrupt the wire")
	}
	if rep.LedgerAudits == 0 {
		t.Error("ledger checker never completed an audit")
	}
	if rep.TSChecks == 0 {
		t.Error("watermark checker never ran")
	}
	if rep.VerifyPasses == 0 {
		t.Error("integrity checker never passed")
	}
	if rep.SpikedOps == 0 {
		t.Error("latency spikes never hit a device operation")
	}
	if rep.StalledOps == 0 {
		t.Error("chip stalls never hit a device operation")
	}
	t.Logf("ops=%d conflicts=%d retries=%d reconnects=%d redo=%d audits=%d ts=%d verify=%d spiked=%d stalled=%d",
		rep.Ops, rep.Conflicts, rep.Retries, rep.Reconnects, rep.RecoveryRedos,
		rep.LedgerAudits, rep.TSChecks, rep.VerifyPasses, rep.SpikedOps, rep.StalledOps)
}

// TestRunRejectsNonPositiveSettings: a session that cannot run fails
// before it boots anything, instead of being silently repaired.
func TestRunRejectsNonPositiveSettings(t *testing.T) {
	for name, zero := range map[string]func(*Options){
		"Duration":    func(o *Options) { o.Duration = 0 },
		"Workers":     func(o *Options) { o.Workers = -1 },
		"Accounts":    func(o *Options) { o.Accounts = 0 },
		"AuditEvery":  func(o *Options) { o.AuditEvery = 0 },
		"VerifyEvery": func(o *Options) { o.VerifyEvery = -time.Second },
	} {
		o := short()
		zero(&o)
		if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("%s: Run returned %v, want a must-be-positive error", name, err)
		}
	}
}

// TestChaosNoCuts runs the same harness without power cuts: a control
// showing the checkers hold on an undisturbed system too (and that the
// spike/stall injectors alone cause no violations).
func TestChaosNoCuts(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos session needs wall-clock time")
	}
	o := short()
	o.Duration = 1500 * time.Millisecond
	o.PowerCuts = 0
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Ops == 0 {
		t.Error("no transfers committed")
	}
}
