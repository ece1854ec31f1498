package ipa_test

import (
	"math"
	"math/rand"
	"testing"

	"ipa"
	"ipa/internal/workload"
)

// opsConfig returns a small device whose buffer pool is much smaller than
// the working set, so update churn evicts constantly and garbage
// collection erases blocks — the burn gauge has something to measure.
func opsConfig(mode ipa.WriteMode) ipa.Config {
	cfg := ipa.Config{
		PageSize:        2048,
		Blocks:          24,
		PagesPerBlock:   8,
		BufferPoolPages: 16,
		WriteMode:       mode,
		FlashMode:       ipa.PSLC,
	}
	if mode != ipa.Traditional {
		cfg.Scheme = ipa.Scheme{N: 4, M: 20}
	}
	return cfg
}

// churn runs ops update transactions against a pre-loaded table.
func churn(t *testing.T, db *ipa.DB, table *ipa.Table, rows int64, ops int) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		tx := db.Begin()
		if err := tx.UpdateAt(table, r.Int63n(rows), 8, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("update: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
}

// TestBurnGaugeClosedForm pins the burn-rate derivation against a
// closed-form oracle: the run is entirely on the virtual device clock, so
// the expected time-to-death is computable exactly from the counters as
// they stood at the two ring readings the gauge itself is derived from.
func TestBurnGaugeClosedForm(t *testing.T) {
	db, err := ipa.Open(opsConfig(ipa.Traditional))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	const rows = 400
	table, err := db.CreateTable("burn", 128)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	row := make([]byte, 128)
	for k := int64(0); k < rows; k++ {
		if err := insertRow(db, table, k, row); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	// Warm-up phase so the measured window starts mid-life, then bracket
	// a deterministic churn phase with two explicit samples.
	churn(t, db, table, rows, 2000)
	db.SampleOps()
	s1 := db.Stats()
	churn(t, db, table, rows, 4000)
	db.SampleOps()
	s2 := db.Stats()

	if s2.FlashBlockErases <= s1.FlashBlockErases {
		t.Fatalf("churn produced no erases in the window (%d -> %d); device too large for the test",
			s1.FlashBlockErases, s2.FlashBlockErases)
	}
	if s2.Elapsed <= s1.Elapsed {
		t.Fatalf("virtual clock did not advance: %v -> %v", s1.Elapsed, s2.Elapsed)
	}

	o := db.Ops()
	st := s2
	geo := db.Geometry()

	// Closed-form oracle, from first principles.
	wantBudget := uint64(geo.Blocks) * uint64(st.EnduranceCycles)
	if o.EraseBudget != wantBudget {
		t.Fatalf("EraseBudget = %d, want blocks×endurance = %d", o.EraseBudget, wantBudget)
	}
	if o.ErasesConsumed != st.TotalErasesEver {
		t.Fatalf("ErasesConsumed = %d, want %d", o.ErasesConsumed, st.TotalErasesEver)
	}
	wantBurn := float64(st.TotalErasesEver) / float64(wantBudget)
	if math.Abs(o.LifeBurned-wantBurn) > 1e-12 {
		t.Fatalf("LifeBurned = %g, want %g", o.LifeBurned, wantBurn)
	}

	dv := (s2.Elapsed - s1.Elapsed).Seconds()
	wantRate := float64(s2.FlashBlockErases-s1.FlashBlockErases) / dv
	if math.Abs(o.WindowEraseRatePerSec-wantRate)/wantRate > 1e-9 {
		t.Fatalf("WindowEraseRatePerSec = %g, want %g", o.WindowEraseRatePerSec, wantRate)
	}
	wantTPS := float64(s2.CommittedTxns-s1.CommittedTxns) / dv
	if math.Abs(o.WindowTPS-wantTPS)/wantTPS > 1e-9 {
		t.Fatalf("WindowTPS = %g, want %g", o.WindowTPS, wantTPS)
	}
	wantTTD := float64(wantBudget-st.TotalErasesEver) / wantRate // virtual seconds
	gotTTD := o.TimeToDeath.Seconds()
	if math.Abs(gotTTD-wantTTD)/wantTTD > 1e-6 {
		t.Fatalf("TimeToDeath = %gs, want %gs", gotTTD, wantTTD)
	}
	if o.Samples < 2 {
		t.Fatalf("Samples = %d, want >= 2", o.Samples)
	}
}

// TestBurnGaugeFallbackWindow checks that Ops degrades to whole-window
// rates when the sampler never ran: the fallback window is the span since
// the last ResetStats on the same virtual clock.
func TestBurnGaugeFallbackWindow(t *testing.T) {
	db, err := ipa.Open(opsConfig(ipa.Traditional))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	table, err := db.CreateTable("burn", 128)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	row := make([]byte, 128)
	for k := int64(0); k < 400; k++ {
		if err := insertRow(db, table, k, row); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	db.ResetStats()
	churn(t, db, table, 400, 4000)

	o := db.Ops()
	st := db.Stats()
	if o.Samples != 0 {
		t.Fatalf("Samples = %d, want 0 (no sampler)", o.Samples)
	}
	if o.WindowVirtual != st.Elapsed {
		t.Fatalf("fallback WindowVirtual = %v, want Stats.Elapsed %v", o.WindowVirtual, st.Elapsed)
	}
	wantTPS := st.Throughput()
	if math.Abs(o.WindowTPS-wantTPS)/wantTPS > 1e-9 {
		t.Fatalf("fallback WindowTPS = %g, want %g", o.WindowTPS, wantTPS)
	}
	if o.WindowEraseRatePerSec <= 0 {
		t.Fatalf("fallback erase rate = %g, want > 0", o.WindowEraseRatePerSec)
	}
}

// TestBurnIPALowerThanBaseline runs the same secchurn mix under the IPA
// native write path and the traditional baseline: in-place appends must
// consume strictly fewer erases — the live form of the paper's E5
// longevity claim — and the avoided-erase counter must be non-zero.
func TestBurnIPALowerThanBaseline(t *testing.T) {
	var inPlace uint64
	run := func(mode ipa.WriteMode) ipa.OpsStats {
		cfg := opsConfig(mode)
		cfg.IndexScheme = cfg.Scheme
		db, err := ipa.Open(cfg)
		if err != nil {
			t.Fatalf("Open(%v): %v", mode, err)
		}
		defer db.Close()
		w := workload.NewSecondaryChurn(workload.SecondaryChurnConfig{Rows: 600, Groups: 64})
		if err := w.Load(db); err != nil {
			t.Fatalf("load(%v): %v", mode, err)
		}
		db.ResetStats()
		if _, err := workload.Run(db, w, workload.RunOptions{MaxOps: 4000, Seed: 42}); err != nil {
			t.Fatalf("run(%v): %v", mode, err)
		}
		inPlace = db.Stats().InPlaceAppends
		return db.Ops()
	}
	base := run(ipa.Traditional)
	nativ := run(ipa.IPANativeFlash)

	if base.ErasesConsumed == 0 {
		t.Fatalf("baseline consumed no erases; the mix is too light to compare burn")
	}
	if nativ.ErasesConsumed >= base.ErasesConsumed {
		t.Fatalf("IPA burn not lower: native consumed %d erases, baseline %d",
			nativ.ErasesConsumed, base.ErasesConsumed)
	}
	if nativ.LifeBurned >= base.LifeBurned {
		t.Fatalf("IPA LifeBurned %g not lower than baseline %g", nativ.LifeBurned, base.LifeBurned)
	}
	if nativ.ErasesAvoided == 0 {
		t.Fatalf("IPA mode reports zero erases avoided despite in-place appends")
	}
	// pSLC programs only the LSB half of opsConfig's 8 pages per block, so
	// 4 out-of-place writes fill a block and cost one erase.
	if nativ.ErasesAvoided != inPlace/4 {
		t.Fatalf("ErasesAvoided = %d, want InPlaceAppends %d / 4 usable pages per block", nativ.ErasesAvoided, inPlace)
	}
	if base.ErasesAvoided != 0 {
		t.Fatalf("baseline reports %d erases avoided; traditional mode has no in-place appends", base.ErasesAvoided)
	}
}
