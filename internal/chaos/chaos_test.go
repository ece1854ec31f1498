package chaos

import (
	"strings"
	"testing"
	"time"

	"ipa"
)

// short returns a session sized for CI, the same one as ipachaos -quick:
// a few seconds of wall time, every fault class and two power cuts.
func short() Options {
	o := DefaultOptions()
	o.Duration = 4 * time.Second
	o.PowerCuts = 2
	o.AuditEvery = 120 * time.Millisecond
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
	if rep.PowerCuts != o.PowerCuts {
		t.Errorf("power cuts %d, want %d", rep.PowerCuts, o.PowerCuts)
	}
	if rep.Ops == 0 {
		t.Error("no transfers committed")
	}
	if rep.Reconnects == 0 {
		t.Error("no reconnects — power cuts did not interrupt the wire")
	}
	if rep.Audits == 0 {
		t.Error("no audit ran")
	}
	if rep.VerifyPasses == 0 {
		t.Error("no integrity check passed")
	}
	if rep.Seed != o.Seed {
		t.Errorf("report seed %d, want %d", rep.Seed, o.Seed)
	}
	if rep.SpikedOps == 0 {
		t.Error("latency spikes never hit a device operation")
	}
	if rep.StalledOps == 0 {
		t.Error("chip stalls never hit a device operation")
	}
	t.Logf("ops=%d conflicts=%d retries=%d reconnects=%d redo=%d audits=%d verify=%d spiked=%d stalled=%d",
		rep.Ops, rep.Conflicts, rep.Retries, rep.Reconnects, rep.RecoveryRedos,
		rep.Audits, rep.VerifyPasses, rep.SpikedOps, rep.StalledOps)
}

// TestRunRejectsNonPositiveSettings: a session that cannot run fails
// before it boots anything, instead of being silently repaired.
func TestRunRejectsNonPositiveSettings(t *testing.T) {
	for name, zero := range map[string]func(*Options){
		"Duration":     func(o *Options) { o.Duration = 0 },
		"Workers":      func(o *Options) { o.Workers = -1 },
		"Accounts":     func(o *Options) { o.Accounts = 0 },
		"AuditEvery":   func(o *Options) { o.AuditEvery = 0 },
		"AuditEvery<0": func(o *Options) { o.AuditEvery = -time.Second },
		"PowerCuts":    func(o *Options) { o.PowerCuts = -1 },
	} {
		o := short()
		zero(&o)
		if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("%s: Run returned %v, want a must-be-positive error", name, err)
		}
	}
}

// TestChaosNoCuts runs the same harness without power cuts: a control
// showing the audits hold on an undisturbed system too (and that spikes
// and stalls alone cause no violations).
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

// TestEveryCutHappens: cuts fire at their wall-clock times whether or not
// a tick falls between them, so a session shorter than one tick still
// cuts power as often as asked, and audits after each cut and at the end.
func TestEveryCutHappens(t *testing.T) {
	o := short()
	o.Duration = 300 * time.Millisecond
	o.AuditEvery = time.Second
	o.PowerCuts = 5
	o.Accounts = 256
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.PowerCuts != o.PowerCuts || rep.Audits != o.PowerCuts+1 || rep.VerifyPasses != o.PowerCuts+1 {
		t.Errorf("%d cuts, %d audits, %d integrity passes; want %d, %d, %d",
			rep.PowerCuts, rep.Audits, rep.VerifyPasses, o.PowerCuts, o.PowerCuts+1, o.PowerCuts+1)
	}
}

// TestAuditReportsEachViolation breaks each invariant in turn on a booted
// session, with no traffic, and requires the next audit to name it: a
// check that cannot fail shows nothing.
func TestAuditReportsEachViolation(t *testing.T) {
	o := short()
	o.Accounts = 64
	s := &session{o: o, logf: t.Logf}
	if err := s.boot(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.srv.Close() }) // closes the engine too; no-op once closed
	accounts, _ := s.db.Table("accounts")
	// write runs one engine transaction outside any transfer.
	write := func(f func(tx *ipa.Tx) error) {
		t.Helper()
		tx := s.db.Begin()
		if err := f(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// expect audits and requires exactly one new violation, naming want.
	expect := func(verify bool, want string) {
		t.Helper()
		before := len(s.rep.Violations)
		s.audit("probe", verify)
		got := s.rep.Violations[before:]
		if want == "" && len(got) > 0 || want != "" && (len(got) != 1 || !strings.Contains(got[0], want)) {
			t.Errorf("audit reported %q, want one violation naming %q", got, want)
		}
	}

	expect(true, "")
	write(func(tx *ipa.Tx) error { // one leg of a transfer: money appears
		return tx.UpdateAt(accounts, 7, balanceOffset, int64Bytes(initialBalance+1))
	})
	expect(false, "ledger sum")
	write(func(tx *ipa.Tx) error {
		return tx.UpdateAt(accounts, 7, balanceOffset, int64Bytes(initialBalance))
	})
	expect(false, "")
	write(func(tx *ipa.Tx) error { return tx.Delete(accounts, 7) })
	expect(false, "saw 63 accounts")
	write(func(tx *ipa.Tx) error {
		row := make([]byte, tupleSize)
		putInt64(row, balanceOffset, initialBalance)
		return tx.Insert(accounts, 7, row)
	})
	expect(true, "")

	w := s.db.CommitWatermark()
	s.lastW = w + 1
	expect(false, "moved backwards")
	s.floor = w + 1
	expect(false, "below durable floor")
	s.floor = 0

	// Any error an audit sees is a violation: with the power gone,
	// VerifyIntegrity cannot read the device, and a crashed engine
	// refuses the ledger scan.
	s.plan.KillPower()
	expect(true, "VerifyIntegrity")
	s.db.Crash()
	s.srv.Close()
	expect(false, "ledger scan")
}
