package bench

import (
	"fmt"
	"io"

	"ipa"
)

// Table1Row is one column of the paper's Table 1 (one configuration).
type Table1Row struct {
	Label      string
	Result     Result
	HostReads  uint64
	HostWrites uint64
	// OOPvsIPA is the percentage split of out-of-place writes vs in-place
	// appends (the "33/67" style row).
	OutOfPlacePct float64
	InPlacePct    float64
	GCMigrations  uint64
	GCErases      uint64
	MigPerWrite   float64
	ErasePerWrite float64
	Throughput    float64
}

// Table1Result bundles the three configurations.
type Table1Result struct {
	Baseline Table1Row // [0×0] traditional
	PSLC     Table1Row // [2×4] pSLC
	OddMLC   Table1Row // [2×4] odd-MLC
}

// Rows returns the rows in presentation order.
func (t Table1Result) Rows() []Table1Row { return []Table1Row{t.Baseline, t.PSLC, t.OddMLC} }

// Table1RowFromResult derives the Table 1 metrics from any experiment
// result; the Go benchmarks in bench_test.go use it to report single
// configurations.
func Table1RowFromResult(res Result) Table1Row {
	label := res.Experiment.Scheme.String()
	if res.Experiment.Name != "" {
		label = res.Experiment.Name
	}
	return makeTable1Row(label, res)
}

func makeTable1Row(label string, res Result) Table1Row {
	s := res.Stats
	total := s.InPlaceAppends + s.OutOfPlaceWrites
	row := Table1Row{
		Label:         label,
		Result:        res,
		HostReads:     s.HostReads,
		HostWrites:    s.TotalHostWrites(),
		GCMigrations:  s.GCMigrations,
		GCErases:      s.GCErases,
		MigPerWrite:   s.MigrationsPerHostWrite(),
		ErasePerWrite: s.ErasesPerHostWrite(),
		Throughput:    s.Throughput(),
	}
	if total > 0 {
		row.OutOfPlacePct = 100 * float64(s.OutOfPlaceWrites) / float64(total)
		row.InPlacePct = 100 * float64(s.InPlaceAppends) / float64(total)
	}
	return row
}

// Table1 reproduces the paper's Table 1: TPC-B under the traditional
// approach [0×0] and under IPA [N×M] in pSLC and odd-MLC modes. All three
// commit the same number of transactions: the paper ran each for two hours,
// but a time bound lets the faster arm do more work and fill the device
// first, which inflates exactly the GC counts the table compares.
func Table1(o Options) (Table1Result, error) {
	var out Table1Result
	scheme := o.scheme()
	for _, c := range []struct {
		row   *Table1Row
		label string
		exp   Experiment
	}{
		{&out.Baseline, "0x0", o.baseline("table1-0x0", "tpcb")},
		{&out.PSLC, fmt.Sprintf("%s pSLC", scheme), o.native("table1-2x4-pslc", "tpcb", ipa.PSLC)},
		{&out.OddMLC, fmt.Sprintf("%s odd-MLC", scheme), o.native("table1-2x4-oddmlc", "tpcb", ipa.OddMLC)},
	} {
		res, err := Run(c.exp)
		if err != nil {
			return out, err
		}
		*c.row = makeTable1Row(c.label, res)
	}
	return out, nil
}

// Write renders the result in the layout of the paper's Table 1: absolute
// values per configuration plus the change relative to the baseline.
func (t Table1Result) Write(w io.Writer) {
	b, p, o := t.Baseline, t.PSLC, t.OddMLC
	rel := func(v, base float64) string {
		if base == 0 { // only a GC row can be: the baseline never collected
			return noGC
		}
		return fmt.Sprintf("%+.0f%%", 100*(v-base)/base)
	}
	fmt.Fprintf(w, "TPC-B: traditional [0x0] vs IPA [%s]\n", p.Result.Experiment.Scheme)
	fmt.Fprintf(w, "%-34s %14s %14s %11s %14s %11s\n", "", "0x0", "pSLC", "rel", "odd-MLC", "rel")
	row := func(name string, bv, pv, ov float64, format string) {
		fmt.Fprintf(w, "%-34s "+format+" "+format+" %11s "+format+" %11s\n",
			name, bv, pv, rel(pv, bv), ov, rel(ov, bv))
	}
	row("Host Reads (pages)", float64(b.HostReads), float64(p.HostReads), float64(o.HostReads), "%14.0f")
	row("Host Writes (pages+deltas)", float64(b.HostWrites), float64(p.HostWrites), float64(o.HostWrites), "%14.0f")
	fmt.Fprintf(w, "%-34s %10.0f/%.0f %10.0f/%.0f %11s %10.0f/%.0f %11s\n",
		"Out-of-Place vs In-Place [%]",
		b.OutOfPlacePct, b.InPlacePct, p.OutOfPlacePct, p.InPlacePct, "",
		o.OutOfPlacePct, o.InPlacePct, "")
	row("GC Page Migrations", float64(b.GCMigrations), float64(p.GCMigrations), float64(o.GCMigrations), "%14.0f")
	row("GC Erases", float64(b.GCErases), float64(p.GCErases), float64(o.GCErases), "%14.0f")
	row("Page Migrations per Host Write", b.MigPerWrite, p.MigPerWrite, o.MigPerWrite, "%14.4f")
	row("GC Erases per Host Write", b.ErasePerWrite, p.ErasePerWrite, o.ErasePerWrite, "%14.4f")
	row("Transactional Throughput (tps)", b.Throughput, p.Throughput, o.Throughput, "%14.1f")
}
