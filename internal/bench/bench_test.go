package bench

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"ipa"
)

// spec returns the registered experiment called name.
func spec(t testing.TB, name string) Spec {
	t.Helper()
	for _, s := range Specs() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no experiment %q in the registry", name)
	return Spec{}
}

// small returns the -quick defaults of the named experiment, shrunk further
// to ops transactions at scale 1 so the harness tests stay fast.
func small(t testing.TB, name string, ops int) Options {
	t.Helper()
	return spec(t, name).Defaults(true).with(Options{Scale: 1, Ops: ops})
}

func TestNewWorkloadNames(t *testing.T) {
	for _, name := range []string{"tpcb", "tpcc", "tatp", "linkbench", "tatpsec", "linkbenchsec", "secchurn"} {
		w, err := NewWorkload(name, 1, 1)
		if err != nil {
			t.Fatalf("NewWorkload(%s): %v", name, err)
		}
		if w.Name() != name {
			t.Fatalf("driver name %q != %q", w.Name(), name)
		}
	}
	if _, err := NewWorkload("nosuch", 1, 1); err == nil {
		t.Fatalf("unknown workload must be rejected")
	}
}

func TestRunNeedsALimit(t *testing.T) {
	for _, ops := range []int{0, -1} {
		o := small(t, "table1", 1)
		o.Ops = ops
		_, err := Run(o, "tpcb", o.baseline())
		if err == nil || !strings.Contains(err.Error(), "MaxOps > 0") {
			t.Fatalf("Ops %d: err %v, want the Ops > 0 rejection", ops, err)
		}
	}
}

func TestRunBaselineVsIPA(t *testing.T) {
	o := small(t, "table1", 600)
	baseRes, err := Run(o, "tpcb", o.baseline())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	ipaRes, err := Run(o, "tpcb", o.native(ipa.PSLC))
	if err != nil {
		t.Fatalf("ipa run: %v", err)
	}
	if baseRes.Run.Committed != 600 || ipaRes.Run.Committed != 600 {
		t.Fatalf("both runs must commit 600 transactions")
	}
	bs, is := baseRes, ipaRes
	if bs.InPlaceAppends != 0 {
		t.Fatalf("baseline must not append in place")
	}
	if is.InPlaceAppends == 0 {
		t.Fatalf("IPA run must append in place")
	}
	if is.Invalidations >= bs.Invalidations {
		t.Fatalf("IPA must invalidate fewer pages: %d vs %d", is.Invalidations, bs.Invalidations)
	}
	if ipaRes.Throughput() <= baseRes.Throughput() {
		t.Fatalf("IPA throughput (%.1f) must exceed the baseline (%.1f)", ipaRes.Throughput(), baseRes.Throughput())
	}
}

func TestFigure1SmallRun(t *testing.T) {
	res, err := Figure1(small(t, "fig1", 400))
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if len(res.Rows) != len(figure1Workloads) {
		t.Fatalf("expected one row per workload, got %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row.Workload != "tpcb" {
		t.Fatalf("first row is %q, want tpcb", row.Workload)
	}
	ts := row.Traditional
	if ts.DirtyEvictions == 0 {
		t.Fatalf("no dirty evictions observed")
	}
	if ts.SmallEvictionShare() < 0.5 {
		t.Fatalf("OLTP evictions should be dominated by small changes, got %.2f", ts.SmallEvictionShare())
	}
	if ts.DBMSWriteAmplification() < 10 {
		t.Fatalf("traditional write amplification should be large, got %.1f", ts.DBMSWriteAmplification())
	}
	if row.TransferReduction() <= 0 {
		t.Fatalf("IPA must reduce the transferred bytes, got %.1f%%", row.TransferReduction())
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "tpcb") {
		t.Fatalf("report rendering missing workload name")
	}
}

func TestTable1SmallRun(t *testing.T) {
	res, err := Table1(small(t, "table1", 800))
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if res.Baseline.InPlaceShare() != 0 {
		t.Fatalf("baseline must have no in-place appends")
	}
	if res.PSLC.InPlaceShare() <= res.OddMLC.InPlaceShare() {
		t.Fatalf("pSLC must serve more appends than odd-MLC: %.3f vs %.3f",
			res.PSLC.InPlaceShare(), res.OddMLC.InPlaceShare())
	}
	if res.PSLC.Throughput() <= res.Baseline.Throughput() {
		t.Fatalf("IPA pSLC throughput must exceed the baseline")
	}
	for _, r := range res.Rows() {
		if got := r.CommittedTxns; got != 800 {
			t.Fatalf("%s committed %d transactions, want 800: the arms must do equal work", r.Label, got)
		}
	}
	var sb strings.Builder
	res.Write(&sb)
	out := sb.String()
	for _, want := range []string{"Host Reads", "GC Erases", "Transactional Throughput"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 rendering missing %q", want)
		}
	}
}

// TestTable1ArmsCountTheSameNetBytes: the -quick table1 arms run one TPC-B
// stream, so a dirty eviction changes about as many bytes whichever path
// writes it. The tracker counts an append; a whole-page write, the only
// kind the [0×0] arm makes, is counted against the page's Flash copy.
func TestTable1ArmsCountTheSameNetBytes(t *testing.T) {
	res, err := Table1(spec(t, "table1").Defaults(true))
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	perEviction := func(a Arm) float64 { return float64(a.NetChangedBytes) / float64(max(1, a.DirtyEvictions)) }
	base := perEviction(res.Baseline)
	for _, r := range res.Rows() {
		if r.DirtyEvictions == 0 || math.Abs(perEviction(r)-base) > 0.01*base {
			t.Errorf("%s: %d net bytes over %d dirty evictions (%.2f each), the [0x0] arm %.2f each",
				r.Label, r.NetChangedBytes, r.DirtyEvictions, perEviction(r), base)
		}
	}
}

func TestIPLCompareSmallRun(t *testing.T) {
	res, err := IPLCompare(small(t, "ipl", 400))
	if err != nil {
		t.Fatalf("IPLCompare: %v", err)
	}
	row := res.Rows[0]
	if row.IPL.TotalFlashReads() <= row.IPA.FlashPageReads {
		t.Fatalf("IPL must read more pages than IPA (read amplification): %d vs %d",
			row.IPL.TotalFlashReads(), row.IPA.FlashPageReads)
	}
	if row.IPA.FlashPagePrograms+row.IPA.FlashDeltaPrograms == 0 || row.IPL.TotalFlashWrites() == 0 {
		t.Fatalf("write counters missing")
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "In-Page Logging") {
		t.Fatalf("IPL rendering wrong")
	}
}

func TestSweepSmallRun(t *testing.T) {
	res, err := Sweep(small(t, "sweep", 300))
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	ns, ms := sweepGrid(true)
	if len(res.Rows) != len(ns)*len(ms) {
		t.Fatalf("expected %d grid points, got %d", len(ns)*len(ms), len(res.Rows))
	}
	// Rows are N-major: the first two N values at the first M.
	lo, hi := res.Rows[0], res.Rows[len(ms)]
	if lo.Scheme.M != hi.Scheme.M || lo.Scheme.N >= hi.Scheme.N {
		t.Fatalf("grid order changed: %s then %s", lo.Scheme, hi.Scheme)
	}
	// A larger N must not lower the in-place share.
	if hi.InPlaceShare() < lo.InPlaceShare() {
		t.Fatalf("in-place share should grow with N: %.2f then %.2f", lo.InPlaceShare(), hi.InPlaceShare())
	}
	if areaBytes(lo.Scheme) >= areaBytes(hi.Scheme) {
		t.Fatalf("area size should grow with N")
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "scheme") {
		t.Fatalf("sweep rendering wrong")
	}
}

// TestSweepAreaIsTheEnginesReservation: the sweep's area column is the
// delta-record area the engine reserves on a page — checksum and commit
// bytes included, 2 × (1 + 3·4 + 48 + 2) = 126 bytes at 2×4 — and its
// overhead that area over the page size.
func TestSweepAreaIsTheEnginesReservation(t *testing.T) {
	if got := areaBytes(ipa.Scheme{N: 2, M: 4}); got != 126 {
		t.Fatalf("2x4 area = %d bytes, want 126", got)
	}
	var sb strings.Builder
	SweepResult{Workload: "tpcb", PageSize: 4096, Rows: []Result{{Stats: ipa.Stats{Scheme: ipa.Scheme{N: 2, M: 4}}}}}.Write(&sb)
	if !regexp.MustCompile(`(?m)^2x4 +126 +3\.1% `).MatchString(sb.String()) {
		t.Fatalf("sweep row of 2x4 does not print 126 B and 3.1%%:\n%s", sb.String())
	}
}

func TestSuiteAndLongevitySmallRun(t *testing.T) {
	res, err := Suite(small(t, "oltp", 600))
	if err != nil {
		t.Fatalf("Suite: %v", err)
	}
	row := res.Rows[0]
	if row.ThroughputGain() <= 0 {
		t.Fatalf("IPA should improve throughput, got %+.1f%%", row.ThroughputGain())
	}
	if inval, _, _ := row.Drops(); inval <= 0 {
		t.Fatalf("IPA should reduce invalidations, got %+.1f%%", inval)
	}
	rows := Longevity(res)
	if len(rows) != 2*len(suiteWorkloads) {
		t.Fatalf("expected a baseline and an IPA longevity row per workload, got %d", len(rows))
	}
	var sb strings.Builder
	res.Write(&sb)
	rows.Write(&sb)
	if !strings.Contains(sb.String(), "longevity") {
		t.Fatalf("longevity rendering wrong")
	}
}
