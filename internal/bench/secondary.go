package bench

import (
	"fmt"
	"io"
)

// SecondaryResult bundles the comparison rows in presentation order. The
// rows reuse the index-experiment shape: the KindIndex counters cover the
// secondary entry pages (plus the mostly idle primary key).
type SecondaryResult struct {
	Rows []IndexRow
}

// Secondary runs the secondary-index experiment: the index experiment's
// comparison on secondary-heavy workloads. "secchurn" is the isolation
// workload — its primary keys never change during the run, so the KindIndex
// counters measure (almost) pure secondary churn; "tatpsec" (sub_nbr
// lookups + call-forwarding churn) and "linkbenchsec" (assoc-by-id2) add
// realistic shapes.
func Secondary(o Options) (SecondaryResult, error) {
	rows, err := indexRows(o, "secondary", []string{"secchurn", "tatpsec", "linkbenchsec"})
	return SecondaryResult{Rows: rows}, err
}

// Write renders the comparison.
func (r SecondaryResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Secondary-index maintenance: out-of-place vs IPA delta appends (entry pages)\n")
	fmt.Fprintf(w, "%-13s %-12s %12s %12s %14s %12s %14s %10s\n",
		"workload", "write path", "idx evicts", "idx appends", "idx page wr", "idx deltas", "deltas/merge", "tps")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-13s %-12s %12d %12d %14d %12d %14.1f %10.1f\n",
			row.Workload, row.Label, row.IndexPageWrites, row.IndexInPlace,
			row.IndexOutOfPlace, row.IndexDeltas, row.DeltasPerMerge, row.Throughput)
	}
}
