package bench

import (
	"fmt"
	"io"

	"ipa"
)

// Table1Result bundles the three configurations.
type Table1Result struct {
	Baseline Arm // [0×0] traditional
	PSLC     Arm // [2×4] pSLC
	OddMLC   Arm // [2×4] odd-MLC
}

// Rows returns the arms in presentation order.
func (t Table1Result) Rows() []Arm { return []Arm{t.Baseline, t.PSLC, t.OddMLC} }

// Table1 reproduces the paper's Table 1: TPC-B under the traditional
// approach [0×0] and under IPA [N×M] in pSLC and odd-MLC modes. All three
// commit the same number of transactions: the paper ran each for two hours,
// but a time bound lets the faster arm do more work and fill the device
// first, which inflates exactly the GC counts the table compares.
func Table1(o Options) (Table1Result, error) {
	var out Table1Result
	for _, c := range []struct {
		arm   *Arm
		label string
		cfg   ipa.Config
	}{
		{&out.Baseline, "0x0", o.baseline()},
		{&out.PSLC, fmt.Sprintf("%s pSLC", o.scheme()), o.native(ipa.PSLC)},
		{&out.OddMLC, fmt.Sprintf("%s odd-MLC", o.scheme()), o.native(ipa.OddMLC)},
	} {
		res, err := Run(o, "tpcb", c.cfg)
		if err != nil {
			return out, err
		}
		*c.arm = Arm{c.label, res}
	}
	return out, nil
}

// Write renders the result in the layout of the paper's Table 1: absolute
// values per configuration plus the change relative to the baseline.
func (t Table1Result) Write(w io.Writer) {
	rel := func(v, base float64) string {
		if base == 0 { // only a GC row can be: the baseline never collected
			return noGC
		}
		return fmt.Sprintf("%+.0f%%", 100*(v-base)/base)
	}
	fmt.Fprintf(w, "TPC-B: traditional [0x0] vs IPA [%s]\n", t.PSLC.Scheme)
	fmt.Fprintf(w, "%-34s %14s %14s %11s %14s %11s\n", "", "0x0", "pSLC", "rel", "odd-MLC", "rel")
	row := func(name, format string, f func(s ipa.Stats) float64) {
		b, p, o := f(t.Baseline.Stats), f(t.PSLC.Stats), f(t.OddMLC.Stats)
		fmt.Fprintf(w, "%-34s "+format+" "+format+" %11s "+format+" %11s\n", name, b, p, rel(p, b), o, rel(o, b))
	}
	split := func(s ipa.Stats) string {
		total := float64(max(1, s.InPlaceAppends+s.OutOfPlaceWrites))
		return fmt.Sprintf("%10.0f/%.0f", 100*float64(s.OutOfPlaceWrites)/total, 100*float64(s.InPlaceAppends)/total)
	}
	row("Host Reads (pages)", "%14.0f", func(s ipa.Stats) float64 { return float64(s.HostReads) })
	row("Host Writes (pages+deltas)", "%14.0f", func(s ipa.Stats) float64 { return float64(s.TotalHostWrites()) })
	fmt.Fprintf(w, "%-34s %s %s %11s %s %11s\n", "Out-of-Place vs In-Place [%]",
		split(t.Baseline.Stats), split(t.PSLC.Stats), "", split(t.OddMLC.Stats), "")
	row("GC Page Migrations", "%14.0f", func(s ipa.Stats) float64 { return float64(s.GCMigrations) })
	row("GC Erases", "%14.0f", func(s ipa.Stats) float64 { return float64(s.GCErases) })
	row("Page Migrations per Host Write", "%14.4f", ipa.Stats.MigrationsPerHostWrite)
	row("GC Erases per Host Write", "%14.4f", ipa.Stats.ErasesPerHostWrite)
	row("Transactional Throughput (tps)", "%14.1f", ipa.Stats.Throughput)
}
