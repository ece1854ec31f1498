package bench

import (
	"fmt"
	"io"

	"ipa"
)

// IndexProfile is the device sizing of the index experiments: the default
// device with a deliberately small buffer pool, so index maintenance
// actually reaches Flash instead of being absorbed by the cache (a cache
// big enough to hold every index page would leave nothing to measure).
// indexQuickProfile is the same idea on the -quick device.
var (
	IndexProfile      = DefaultProfile.withPool(24)
	indexQuickProfile = SmallProfile.withPool(16)
)

// indexScheme sizes the index region (ipa.Config.IndexScheme, applied to
// primary-key and secondary entry pages alike). An index entry insert
// patches ~20 body bytes (entry + slot), so index pages want wider records
// than heap pages (whose OLTP field updates are a few bytes).
var indexScheme = ipa.Scheme{N: 4, M: 20}

// IndexRow is one (workload, write path) arm.
type IndexRow struct {
	Workload string
	Arm
}

// IndexResult is the index or the secondary-index comparison: the rows in
// presentation order, under the experiment's title.
type IndexResult struct {
	Title string
	Rows  []IndexRow
}

// indexRows runs every workload with traditional out-of-place index
// persistence and with IPA-native delta appends.
func indexRows(o Options, title string, workloads []string) (IndexResult, error) {
	out := IndexResult{Title: title}
	native := o.native(ipa.PSLC)
	native.IndexScheme = indexScheme
	for _, w := range workloads {
		for _, a := range []struct {
			label string
			cfg   ipa.Config
		}{{"out-of-place", o.baseline()}, {fmt.Sprintf("IPA %s", indexScheme), native}} {
			res, err := Run(o, w, a.cfg)
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, IndexRow{w, Arm{a.label, res}})
		}
	}
	return out, nil
}

// Index runs the index-maintenance experiment, comparing the physical
// Flash writes caused by primary-key index maintenance. TATP is the
// headline workload (its insert/delete call-forwarding ops churn the
// forwarding index in ~4 % of transactions); LinkBench adds a second,
// insert-heavier shape.
func Index(o Options) (IndexResult, error) {
	return indexRows(o, "Index maintenance: out-of-place vs IPA delta appends (primary-key entry pages)",
		[]string{"tatp", "linkbench"})
}

// Secondary runs the secondary-index experiment: the index experiment's
// comparison on secondary-heavy workloads, whose KindIndex counters cover
// the secondary entry pages (plus the mostly idle primary key). "secchurn"
// is the isolation workload — its primary keys never change during the
// run, so the counters measure (almost) pure secondary churn; "tatpsec"
// (sub_nbr lookups + call-forwarding churn) and "linkbenchsec"
// (assoc-by-id2) add realistic shapes.
func Secondary(o Options) (IndexResult, error) {
	return indexRows(o, "Secondary-index maintenance: out-of-place vs IPA delta appends (entry pages)",
		[]string{"secchurn", "tatpsec", "linkbenchsec"})
}

// Write renders the comparison, its workload column as wide as the longest
// name.
func (r IndexResult) Write(w io.Writer) {
	width := 0
	for _, row := range r.Rows {
		width = max(width, len(row.Workload)+1)
	}
	fmt.Fprintln(w, r.Title)
	fmt.Fprintf(w, "%-*s %-12s %12s %12s %14s %12s %14s %10s\n", width,
		"workload", "write path", "idx evicts", "idx appends", "idx page wr", "idx deltas", "deltas/merge", "tps")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-*s %-12s %12d %12d %14d %12d %14.1f %10.1f\n", width,
			row.Workload, row.Label, row.IndexPageWrites, row.IndexInPlaceAppends,
			row.IndexOutOfPlaceWrites, row.IndexDeltaRecords, row.IndexDeltasPerMerge(), row.Throughput())
	}
}
