package bench

import (
	"fmt"
	"io"

	"ipa"
)

// sweepGrid is the N×M parameter grid of the sweep.
func sweepGrid(quick bool) (ns, ms []int) {
	ns = pick(quick, []int{1, 2, 4, 8}, []int{1, 2, 4})
	ms = pick(quick, []int{2, 4, 8, 16}, []int{4, 8})
	return ns, ms
}

// SweepRow is the outcome of one N×M configuration.
type SweepRow struct {
	Scheme          ipa.Scheme
	AreaBytes       int     // delta-record area per page
	SpaceOverhead   float64 // area / page size
	InPlaceShare    float64 // host writes served in place
	AppendFallbacks uint64
	MigPerWrite     float64
	ErasePerWrite   float64
	Throughput      float64
}

// SweepResult is the grid of results, plus the baseline for reference.
type SweepResult struct {
	Workload string
	Baseline SweepRow // 0×0
	Rows     []SweepRow
	PageSize int
}

// Sweep is the N×M scheme ablation (experiment E6) on TPC-B: how the
// delta-record-area size trades off against the fraction of evictions that
// IPA can serve in place, and the resulting GC work.
func Sweep(o Options) (SweepResult, error) {
	out := SweepResult{Workload: "tpcb", PageSize: o.Profile.PageSize}
	baseRes, err := Run(o.baseline("sweep-baseline", out.Workload))
	if err != nil {
		return out, err
	}
	out.Baseline = makeSweepRow(ipa.Scheme{}, baseRes, out.PageSize)

	ns, ms := sweepGrid(o.Quick)
	for _, n := range ns {
		for _, m := range ms {
			o.N, o.M = n, m
			res, err := Run(o.native(fmt.Sprintf("sweep-%s", o.scheme()), out.Workload, ipa.PSLC))
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, makeSweepRow(o.scheme(), res, out.PageSize))
		}
	}
	return out, nil
}

func makeSweepRow(scheme ipa.Scheme, res Result, pageSize int) SweepRow {
	s := res.Stats
	area := 0
	if scheme.Enabled() {
		// Mirror core.Scheme.AreaSize: N × (1 + 3·M + Δmetadata) with the
		// 48-byte header+footer Δmetadata of the page layout.
		area = scheme.N * (1 + 3*scheme.M + 48)
	}
	row := SweepRow{
		Scheme:          scheme,
		AreaBytes:       area,
		InPlaceShare:    s.InPlaceShare(),
		AppendFallbacks: s.AppendFallbacks,
		MigPerWrite:     s.MigrationsPerHostWrite(),
		ErasePerWrite:   s.ErasesPerHostWrite(),
		Throughput:      s.Throughput(),
	}
	if pageSize > 0 {
		row.SpaceOverhead = float64(area) / float64(pageSize)
	}
	return row
}

// Write renders the sweep.
func (r SweepResult) Write(w io.Writer) {
	fmt.Fprintf(w, "N×M scheme sweep (%s), page size %d bytes\n", r.Workload, r.PageSize)
	fmt.Fprintf(w, "%-8s %10s %10s %12s %12s %14s %14s %12s\n",
		"scheme", "area [B]", "overhead", "in-place", "fallbacks", "migr/write", "erases/write", "tps")
	rows := append([]SweepRow{r.Baseline}, r.Rows...)
	for _, row := range rows {
		fmt.Fprintf(w, "%-8s %10d %9.1f%% %11.1f%% %12d %14.4f %14.4f %12.1f\n",
			row.Scheme, row.AreaBytes, 100*row.SpaceOverhead, 100*row.InPlaceShare,
			row.AppendFallbacks, row.MigPerWrite, row.ErasePerWrite, row.Throughput)
	}
}
