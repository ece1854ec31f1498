package crash

import (
	"testing"

	"ipa"
)

// TestCrashMidGCOnMultiChipDevice sweeps crash points through the late,
// GC-active phase of a multi-chip run: a power cut between a garbage
// collector's copy-back and its erase (or mid-erase, torn) on one chip must
// not disturb recovery on any chip.
func TestCrashMidGCOnMultiChipDevice(t *testing.T) {
	o := DefaultOptions()
	o.DB.Chips = 4
	o.DB.Blocks = 7
	o.Ops = 600
	o.PostOps = 4

	d, err := newDriver(o.DB, o)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := d.load(); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := d.run(o.Seed, o.Ops, o.Readers); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	st := d.db.Stats()
	d.db.Close()
	if st.GCRuns == 0 || st.FlashBlockErases == 0 {
		t.Fatalf("reference run never garbage-collected (gcRuns=%d erases=%d); harness miscalibrated", st.GCRuns, st.FlashBlockErases)
	}
	perChip := 0
	for _, c := range st.ChipStats {
		if c.GCRuns > 0 {
			perChip++
		}
	}
	if perChip == 0 {
		t.Fatalf("no chip reports GC activity")
	}

	total, err := Enumerate(o)
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	// GC happens in the churn-heavy tail: sweep the last quarter.
	start := total - total/4
	step := total / 40
	if step == 0 {
		step = 1
	}
	gcCovered := false
	for _, mode := range []ipa.FaultMode{ipa.CrashBefore, ipa.CrashTorn, ipa.CrashAfter} {
		for k := start; k <= total; k += step {
			out, err := RunPointDetail(o, k, mode)
			if err != nil {
				t.Fatalf("point %d (%v): %v", k, mode, err)
			}
			if out.Tripped && out.GCRuns > 0 {
				gcCovered = true
			}
		}
	}
	if !gcCovered {
		t.Fatalf("no tested crash point fell into the GC-active phase")
	}
}

// TestDoubleCrashDuringRecovery crashes the device again while the FIRST
// recovery is replaying (scrubs, redo writes, final flush), then recovers
// from the second crash. Recovery must be idempotent, and — the pre-crash
// run being a function of the seed and recovery serial — a function of
// the options: the scenario runs three times and must survive the same
// number of recovery crashes each time.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	o := DefaultOptions()
	o.Ops = 150
	total, err := Enumerate(o)
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	run := func() int {
		plan := ipa.NewFaultPlan(total*2/3, ipa.CrashTorn)
		cfg := o.DB
		cfg.Faults = plan
		d, err := newDriver(cfg, o)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		runErr := d.load()
		if runErr == nil {
			runErr = d.run(o.Seed, o.Ops, o.Readers)
		}
		if runErr != nil && !isPowerLoss(runErr) {
			t.Fatalf("workload: %v", runErr)
		}
		if !plan.Tripped() {
			t.Fatalf("first fault never fired")
		}
		img := d.db.Crash()

		// Second crash: re-arm the plan so recovery's own device writes trip.
		secondCrashes := 0
		var db2 *ipa.DB
		for j := uint64(1); ; j += 2 {
			plan.Arm(j, ipa.CrashBefore)
			db2, err = ipa.Reopen(img)
			if err == nil {
				break
			}
			if !isPowerLoss(err) {
				t.Fatalf("reopen after double crash: %v", err)
			}
			secondCrashes++
			if secondCrashes > 200 {
				t.Fatalf("recovery never completed under repeated crashes")
			}
		}
		defer db2.Close()
		if secondCrashes == 0 {
			t.Fatalf("recovery performed no faultable work; double-crash path untested")
		}
		plan.Disarm()
		if err := verify(db2, o, d.ora); err != nil {
			t.Fatalf("verify after double crash (%d recovery crashes): %v", secondCrashes, err)
		}
		return secondCrashes
	}
	first := run()
	t.Logf("recovery survived %d crashes before completing", first)
	for i := 1; i < 3; i++ {
		if n := run(); n != first {
			t.Fatalf("run %d survived %d recovery crashes, run 0 %d", i, n, first)
		}
	}
}

// TestAbortedUpdateResidueRepairedByRecovery pins down the recovery rule
// for transactions that aborted BEFORE the crash: their flushed update
// residue is erased by redo repeating committed history from the insert
// forward — it must NOT be undone with before-images, or a transaction that
// committed after the abort would be clobbered.
func TestAbortedUpdateResidueRepairedByRecovery(t *testing.T) {
	o := DefaultOptions()
	db, err := ipa.Open(o.DB)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	table, err := db.CreateTable("kv", accountSize)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	row := make([]byte, accountSize)
	putKey(row, keyOffset, 1)
	putKey(row, balanceOffset, initialBalance)
	tx := db.Begin()
	if err := tx.Insert(table, 1, row); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit insert: %v", err)
	}

	// Aborted update whose dirty page reaches Flash before the rollback.
	tx = db.Begin()
	bad := make([]byte, 8)
	putKey(bad, 0, int64(-777))
	if err := tx.UpdateAt(table, 1, balanceOffset, bad); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("flush with uncommitted update: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}

	// A later transaction commits a different value on the same bytes; the
	// crash hits before that page is flushed again.
	tx = db.Begin()
	good := make([]byte, 8)
	putKey(good, 0, int64(424242))
	if err := tx.UpdateAt(table, 1, balanceOffset, good); err != nil {
		t.Fatalf("committed update: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	t2, _ := db2.Table("kv")
	got, err := t2.Get(1)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if v := getKey(got, balanceOffset); v != 424242 {
		t.Fatalf("balance %d after recovery; aborted residue must lose to the committed value 424242", v)
	}
}

// TestAbortedUpdateResidueWithoutLaterCommit is the same scenario with no
// later committed writer: the flushed aborted value must fall back to the
// committed insert's value.
func TestAbortedUpdateResidueWithoutLaterCommit(t *testing.T) {
	o := DefaultOptions()
	db, err := ipa.Open(o.DB)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	table, err := db.CreateTable("kv", accountSize)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	row := make([]byte, accountSize)
	putKey(row, keyOffset, 1)
	putKey(row, balanceOffset, initialBalance)
	tx := db.Begin()
	if err := tx.Insert(table, 1, row); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit insert: %v", err)
	}
	tx = db.Begin()
	bad := make([]byte, 8)
	putKey(bad, 0, int64(-777))
	if err := tx.UpdateAt(table, 1, balanceOffset, bad); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}

	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	t2, _ := db2.Table("kv")
	got, err := t2.Get(1)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if v := getKey(got, balanceOffset); v != initialBalance {
		t.Fatalf("balance %d after recovery, want the inserted value %d", v, initialBalance)
	}
}

// TestSweepAllWriteModes runs a small sample sweep under every write path:
// the baseline, IPA over a conventional SSD and IPA on native Flash.
func TestSweepAllWriteModes(t *testing.T) {
	for _, mode := range []ipa.WriteMode{ipa.Traditional, ipa.IPAConventionalSSD, ipa.IPANativeFlash} {
		t.Run(mode.String(), func(t *testing.T) {
			o := DefaultOptions()
			o.DB.WriteMode = mode
			o.Ops = 80
			o.Sample = 6
			res, err := Sweep(o)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			for _, f := range res.Failures {
				t.Errorf("%s: %s", mode, f)
			}
			if res.Crashes == 0 {
				t.Fatalf("no crash fired")
			}
		})
	}
}
