package bench

import (
	"fmt"
	"io"

	"ipa"
)

// suiteWorkloads are the three benchmarks of the paper's headline claims.
var suiteWorkloads = []string{"tpcb", "tpcc", "tatp"}

// SuiteRow compares baseline and IPA for one workload.
type SuiteRow struct {
	Workload string
	Baseline Result
	IPA      Result
}

// ThroughputGain is IPA's throughput over the baseline's, in percent.
func (r SuiteRow) ThroughputGain() float64 {
	bt := r.Baseline.Throughput()
	if bt <= 0 {
		return 0
	}
	return 100 * (r.IPA.Throughput() - bt) / bt
}

// Drops are how much less often IPA invalidates, migrates and erases a page
// per host write than the baseline, in percent (see dropPctPerWrite).
func (r SuiteRow) Drops() (invalidations, migrations, erases float64) {
	bs, is := r.Baseline.Stats, r.IPA.Stats
	drop := func(b, i uint64) float64 {
		return dropPctPerWrite(b, bs.TotalHostWrites(), i, is.TotalHostWrites())
	}
	return drop(bs.Invalidations, is.Invalidations), drop(bs.GCMigrations, is.GCMigrations), drop(bs.GCErases, is.GCErases)
}

// Lifetime is the ratio of host writes per erase, IPA over the baseline: 0
// when either arm erased nothing.
func (r SuiteRow) Lifetime() float64 {
	be, ie := r.Baseline.ErasesPerHostWrite(), r.IPA.ErasesPerHostWrite()
	if be <= 0 || ie <= 0 {
		return 0
	}
	return be / ie
}

// SuiteResult is the full comparison; the lifetime projection derives from
// it (Longevity).
type SuiteResult struct {
	Rows []SuiteRow
}

// Suite runs the OLTP suite backing the paper's headline claims (E3): up to
// 45% higher throughput, up to ~67-85% fewer page invalidations/migrations
// and up to ~53-80% fewer erases across TPC-B, TPC-C and TATP — baseline vs
// IPA (pSLC) for every workload. Longevity (E5) derives from its result.
func Suite(o Options) (SuiteResult, error) {
	var out SuiteResult
	for _, wl := range suiteWorkloads {
		row := SuiteRow{Workload: wl}
		var err error
		if row.Baseline, err = Run(o, wl, o.baseline()); err != nil {
			return out, err
		}
		if row.IPA, err = Run(o, wl, o.native(ipa.PSLC)); err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// noGC is what a drop or a lifetime prints when the arm it divides by never
// invalidated, migrated or erased anything: the run ended before garbage
// collection began, and "+0.0%" or "0.00x" would read as a measurement.
const noGC = "n/a (no GC)"

// dropPctPerWrite compares two counters normalised by the work performed
// (host writes), returning the percentage reduction — 0 when the baseline
// arm counted nothing, which formatDrop prints as noGC.
func dropPctPerWrite(baseCnt, baseWork, ipaCnt, ipaWork uint64) float64 {
	if baseWork == 0 || ipaWork == 0 || baseCnt == 0 {
		return 0
	}
	baseRate := float64(baseCnt) / float64(baseWork)
	ipaRate := float64(ipaCnt) / float64(ipaWork)
	return 100 * (1 - ipaRate/baseRate)
}

// formatDrop renders a drop of a counter the baseline arm counted baseCnt
// times, formatLifetime a lifetime ratio (0 = an arm without erases).
func formatDrop(pct float64, baseCnt uint64) string {
	if baseCnt == 0 {
		return noGC
	}
	return fmt.Sprintf("%+.1f%%", pct)
}

func formatLifetime(ratio float64) string {
	if ratio <= 0 {
		return noGC
	}
	return fmt.Sprintf("%.2fx", ratio)
}

// Write renders the suite comparison and the lifetime projection.
func (r SuiteResult) Write(w io.Writer) {
	fmt.Fprintf(w, "OLTP suite: traditional [0x0] vs IPA\n")
	fmt.Fprintf(w, "%-10s %14s %14s %12s %12s %12s %12s %11s\n",
		"workload", "base tps", "ipa tps", "tps gain", "inval drop", "migr drop", "erase drop", "lifetime")
	for _, row := range r.Rows {
		bs := row.Baseline.Stats
		inval, migr, erase := row.Drops()
		fmt.Fprintf(w, "%-10s %14.1f %14.1f %+11.1f%% %12s %12s %12s %11s\n",
			row.Workload, row.Baseline.Throughput(), row.IPA.Throughput(), row.ThroughputGain(),
			formatDrop(inval, bs.Invalidations), formatDrop(migr, bs.GCMigrations),
			formatDrop(erase, bs.GCErases), formatLifetime(row.Lifetime()))
	}
	if len(r.Rows) > 0 {
		fmt.Fprintln(w)
		Longevity(r).Write(w)
	}
}

// LongevityRow is one arm's device-lifetime projection (experiment E5).
type LongevityRow struct {
	Arm
	RelativeLifetime float64 // normalised to the baseline row; 0 = an arm without erases
}

// LongevityResult is the lifetime projection of every suite configuration.
type LongevityResult []LongevityRow

// Longevity derives lifetime estimates from a suite result: the fewer
// erases each host write causes, the more host writes fit into the erase
// budget of the Flash device.
func Longevity(r SuiteResult) LongevityResult {
	var rows LongevityResult
	for _, s := range r.Rows {
		base := LongevityRow{Arm: Arm{s.Workload + " 0x0", s.Baseline}}
		if s.Baseline.ErasesPerHostWrite() > 0 {
			base.RelativeLifetime = 1
		}
		rows = append(rows, base, LongevityRow{Arm{s.Workload + " " + s.IPA.Scheme.String(), s.IPA}, s.Lifetime()})
	}
	return rows
}

// Write renders the longevity rows.
func (rows LongevityResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Flash longevity (erase budget per host write)\n")
	fmt.Fprintf(w, "%-20s %16s %12s %14s\n", "configuration", "erases/write", "endurance", "rel. lifetime")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %16.5f %12d %14s\n", r.Label, r.ErasesPerHostWrite(), r.EnduranceCycles, formatLifetime(r.RelativeLifetime))
	}
}
