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

// IndexRow is one (workload, write path) measurement.
type IndexRow struct {
	Workload string
	Label    string
	Result   Result

	// IndexPageWrites is the number of dirty index-page evictions;
	// IndexOutOfPlace of them were physical whole-page programs and
	// IndexInPlace were delta appends onto the existing physical page.
	IndexPageWrites uint64
	IndexInPlace    uint64
	IndexOutOfPlace uint64
	IndexDeltas     uint64
	// DeltasPerMerge is how many delta appends one full index-page rewrite
	// (merge) amortises.
	DeltasPerMerge float64
	Throughput     float64
}

// IndexResult bundles the comparison rows in presentation order.
type IndexResult struct {
	Rows []IndexRow
}

func makeIndexRow(workload, label string, res Result) IndexRow {
	s := res.Stats
	return IndexRow{
		Workload:        workload,
		Label:           label,
		Result:          res,
		IndexPageWrites: s.IndexPageWrites,
		IndexInPlace:    s.IndexInPlaceAppends,
		IndexOutOfPlace: s.IndexOutOfPlaceWrites,
		IndexDeltas:     s.IndexDeltaRecords,
		DeltasPerMerge:  s.IndexDeltasPerMerge(),
		Throughput:      s.Throughput(),
	}
}

// indexRows runs every workload with traditional out-of-place index
// persistence and with IPA-native delta appends.
func indexRows(o Options, prefix string, workloads []string) ([]IndexRow, error) {
	var rows []IndexRow
	for _, w := range workloads {
		base := o.baseline(prefix+"-oop-"+w, w)
		native := o.native(prefix+"-ipa-"+w, w, ipa.PSLC)
		native.IndexScheme = indexScheme
		// Only the index-page counters are reported: no per-eviction byte
		// accounting.
		base.Analytic, native.Analytic = false, false
		baseRes, err := Run(base)
		if err != nil {
			return rows, err
		}
		rows = append(rows, makeIndexRow(w, "out-of-place", baseRes))
		nativeRes, err := Run(native)
		if err != nil {
			return rows, err
		}
		rows = append(rows, makeIndexRow(w, fmt.Sprintf("IPA %s", indexScheme), nativeRes))
	}
	return rows, nil
}

// Index runs the index-maintenance experiment, comparing the physical
// Flash writes caused by primary-key index maintenance. TATP is the
// headline workload (its insert/delete call-forwarding ops churn the
// forwarding index in ~4 % of transactions); LinkBench adds a second,
// insert-heavier shape.
func Index(o Options) (IndexResult, error) {
	rows, err := indexRows(o, "index", []string{"tatp", "linkbench"})
	return IndexResult{Rows: rows}, err
}

// Write renders the comparison.
func (r IndexResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Index maintenance: out-of-place vs IPA delta appends (primary-key entry pages)\n")
	fmt.Fprintf(w, "%-10s %-12s %12s %12s %14s %12s %14s %10s\n",
		"workload", "write path", "idx evicts", "idx appends", "idx page wr", "idx deltas", "deltas/merge", "tps")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %-12s %12d %12d %14d %12d %14.1f %10.1f\n",
			row.Workload, row.Label, row.IndexPageWrites, row.IndexInPlace,
			row.IndexOutOfPlace, row.IndexDeltas, row.DeltasPerMerge, row.Throughput)
	}
}
