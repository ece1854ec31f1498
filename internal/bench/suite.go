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

	ThroughputGainPct    float64
	InvalidationDropPct  float64
	MigrationDropPct     float64
	EraseDropPct         float64
	LongevityImprovement float64 // ratio of host writes per erase (IPA / baseline)
}

// SuiteResult is the full comparison, with the lifetime projection derived
// from it.
type SuiteResult struct {
	Rows      []SuiteRow
	Longevity LongevityResult
}

// Suite runs the OLTP suite backing the paper's headline claims (E3): up to
// 45% higher throughput, up to ~67-85% fewer page invalidations/migrations
// and up to ~53-80% fewer erases across TPC-B, TPC-C and TATP — baseline vs
// IPA (pSLC) for every workload. Longevity (E5) derives from its result.
func Suite(o Options) (SuiteResult, error) {
	var out SuiteResult
	for _, wl := range suiteWorkloads {
		baseRes, err := Run(o.baseline("suite-"+wl+"-baseline", wl))
		if err != nil {
			return out, err
		}
		ipaRes, err := Run(o.native("suite-"+wl+"-ipa", wl, ipa.PSLC))
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, makeSuiteRow(wl, baseRes, ipaRes))
	}
	out.Longevity = Longevity(out)
	return out, nil
}

func makeSuiteRow(wl string, baseRes, ipaRes Result) SuiteRow {
	bs, is := baseRes.Stats, ipaRes.Stats
	row := SuiteRow{Workload: wl, Baseline: baseRes, IPA: ipaRes}
	if bt := bs.Throughput(); bt > 0 {
		row.ThroughputGainPct = 100 * (is.Throughput() - bt) / bt
	}
	row.InvalidationDropPct = dropPctPerWrite(bs.Invalidations, bs.TotalHostWrites(), is.Invalidations, is.TotalHostWrites())
	row.MigrationDropPct = dropPctPerWrite(bs.GCMigrations, bs.TotalHostWrites(), is.GCMigrations, is.TotalHostWrites())
	row.EraseDropPct = dropPctPerWrite(bs.GCErases, bs.TotalHostWrites(), is.GCErases, is.TotalHostWrites())
	be := bs.ErasesPerHostWrite()
	ie := is.ErasesPerHostWrite()
	if ie > 0 && be > 0 {
		row.LongevityImprovement = be / ie
	}
	return row
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

// Write renders the suite comparison.
func (r SuiteResult) Write(w io.Writer) {
	fmt.Fprintf(w, "OLTP suite: traditional [0x0] vs IPA\n")
	fmt.Fprintf(w, "%-10s %14s %14s %12s %12s %12s %12s %11s\n",
		"workload", "base tps", "ipa tps", "tps gain", "inval drop", "migr drop", "erase drop", "lifetime")
	for _, row := range r.Rows {
		bs := row.Baseline.Stats
		fmt.Fprintf(w, "%-10s %14.1f %14.1f %+11.1f%% %12s %12s %12s %11s\n",
			row.Workload, row.Baseline.Throughput(), row.IPA.Throughput(), row.ThroughputGainPct,
			formatDrop(row.InvalidationDropPct, bs.Invalidations), formatDrop(row.MigrationDropPct, bs.GCMigrations),
			formatDrop(row.EraseDropPct, bs.GCErases), formatLifetime(row.LongevityImprovement))
	}
	if len(r.Longevity) > 0 {
		fmt.Fprintln(w)
		r.Longevity.Write(w)
	}
}

// LongevityRow summarises device-lifetime projections (experiment E5).
type LongevityRow struct {
	Label            string
	ErasesPerWrite   float64
	EnduranceCycles  int
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
		base := LongevityRow{
			Label:           s.Workload + " 0x0",
			ErasesPerWrite:  s.Baseline.Stats.ErasesPerHostWrite(),
			EnduranceCycles: s.Baseline.Stats.EnduranceCycles,
		}
		ipaRow := LongevityRow{
			Label:           s.Workload + " " + s.IPA.Experiment.Scheme.String(),
			ErasesPerWrite:  s.IPA.Stats.ErasesPerHostWrite(),
			EnduranceCycles: s.IPA.Stats.EnduranceCycles,
		}
		if base.ErasesPerWrite > 0 {
			base.RelativeLifetime = 1
			if ipaRow.ErasesPerWrite > 0 {
				ipaRow.RelativeLifetime = base.ErasesPerWrite / ipaRow.ErasesPerWrite
			}
		}
		rows = append(rows, base, ipaRow)
	}
	return rows
}

// Write renders the longevity rows.
func (rows LongevityResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Flash longevity (erase budget per host write)\n")
	fmt.Fprintf(w, "%-20s %16s %12s %14s\n", "configuration", "erases/write", "endurance", "rel. lifetime")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %16.5f %12d %14s\n", r.Label, r.ErasesPerWrite, r.EnduranceCycles, formatLifetime(r.RelativeLifetime))
	}
}
