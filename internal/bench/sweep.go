package bench

import (
	"fmt"
	"io"

	"ipa"
	"ipa/internal/core"
	"ipa/internal/page"
)

// sweepGrid is the N×M parameter grid of the sweep.
func sweepGrid(quick bool) (ns, ms []int) {
	ns = pick(quick, []int{1, 2, 4, 8}, []int{1, 2, 4})
	ms = pick(quick, []int{2, 4, 8, 16}, []int{4, 8})
	return ns, ms
}

// SweepResult is the grid of results in N-major order, plus the baseline
// for reference. Each arm's scheme is its Stats.Scheme.
type SweepResult struct {
	Workload string
	PageSize int
	Baseline Result // 0×0
	Rows     []Result
}

// Sweep is the N×M scheme ablation (experiment E6) on TPC-B: how the
// delta-record-area size trades off against the fraction of evictions that
// IPA can serve in place, and the resulting GC work.
func Sweep(o Options) (SweepResult, error) {
	out := SweepResult{Workload: "tpcb", PageSize: o.Profile.PageSize}
	var err error
	if out.Baseline, err = Run(o, out.Workload, o.baseline()); err != nil {
		return out, err
	}
	ns, ms := sweepGrid(o.Quick)
	for _, n := range ns {
		for _, m := range ms {
			o.N, o.M = n, m
			res, err := Run(o, out.Workload, o.native(ipa.PSLC))
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, res)
		}
	}
	return out, nil
}

// areaBytes is the delta-record area the engine reserves on every page
// under scheme s.
func areaBytes(s ipa.Scheme) int { return core.Scheme{N: s.N, M: s.M}.AreaSize(page.MetaSize) }

// Write renders the sweep.
func (r SweepResult) Write(w io.Writer) {
	fmt.Fprintf(w, "N×M scheme sweep (%s), page size %d bytes\n", r.Workload, r.PageSize)
	fmt.Fprintf(w, "%-8s %10s %10s %12s %12s %14s %14s %12s\n",
		"scheme", "area [B]", "overhead", "in-place", "fallbacks", "migr/write", "erases/write", "tps")
	for _, s := range append([]Result{r.Baseline}, r.Rows...) {
		area := areaBytes(s.Scheme)
		fmt.Fprintf(w, "%-8s %10d %9.1f%% %11.1f%% %12d %14.4f %14.4f %12.1f\n",
			s.Scheme, area, 100*float64(area)/float64(r.PageSize), 100*s.InPlaceShare(),
			s.AppendFallbacks, s.MigrationsPerHostWrite(), s.ErasesPerHostWrite(), s.Throughput())
	}
}
