package bench

import (
	"fmt"
	"io"

	"ipa"
)

// ScenarioRow is one demonstration scenario.
type ScenarioRow struct {
	Label            string
	Result           Result
	HostWrites       uint64
	HostBytesWritten uint64
	InPlaceAppends   uint64
	Invalidations    uint64
	GCErases         uint64
	Throughput       float64
	WriteAmp         float64
}

// ScenarioResult bundles the three scenarios.
type ScenarioResult struct {
	Baseline ScenarioRow
	SSD      ScenarioRow
	Native   ScenarioRow
}

// Rows returns the scenarios in presentation order.
func (r ScenarioResult) Rows() []ScenarioRow { return []ScenarioRow{r.Baseline, r.SSD, r.Native} }

func makeScenarioRow(label string, res Result) ScenarioRow {
	s := res.Stats
	return ScenarioRow{
		Label:            label,
		Result:           res,
		HostWrites:       s.TotalHostWrites(),
		HostBytesWritten: s.HostBytesWritten,
		InPlaceAppends:   s.InPlaceAppends,
		Invalidations:    s.Invalidations,
		GCErases:         s.GCErases,
		Throughput:       s.Throughput(),
		WriteAmp:         s.DBMSWriteAmplification(),
	}
}

// Scenarios runs the paper's three demonstration scenarios on TPC-B:
//
//	scenario 1 — traditional out-of-place writes (baseline),
//	scenario 2 — IPA for conventional SSDs (block-device interface),
//	scenario 3 — IPA for native Flash (write_delta command).
//
// Scenarios 2 and 3 avoid the same page invalidations and GC work; the
// native path additionally removes the DBMS write amplification on the
// host interface because only the delta records are transferred.
func Scenarios(o Options) (ScenarioResult, error) {
	var out ScenarioResult
	for _, c := range []struct {
		row   *ScenarioRow
		label string
		exp   Experiment
	}{
		{&out.Baseline, "1: traditional", o.baseline("scenario1-baseline", "tpcb")},
		{&out.SSD, "2: IPA conventional SSD", o.experiment("scenario2-ipa-ssd", "tpcb", ipa.IPAConventionalSSD, o.scheme(), ipa.PSLC)},
		{&out.Native, "3: IPA native Flash", o.native("scenario3-ipa-native", "tpcb", ipa.PSLC)},
	} {
		res, err := Run(c.exp)
		if err != nil {
			return out, err
		}
		*c.row = makeScenarioRow(c.label, res)
	}
	return out, nil
}

// Write renders the comparison.
func (r ScenarioResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Demonstration scenarios: traditional vs IPA (conventional SSD) vs IPA (native Flash)\n")
	fmt.Fprintf(w, "%-26s %12s %16s %12s %14s %10s %12s %10s\n",
		"scenario", "host writes", "bytes to device", "in-place", "invalidations", "erases", "tps", "write-amp")
	for _, row := range r.Rows() {
		fmt.Fprintf(w, "%-26s %12d %16d %12d %14d %10d %12.1f %9.1fx\n",
			row.Label, row.HostWrites, row.HostBytesWritten, row.InPlaceAppends,
			row.Invalidations, row.GCErases, row.Throughput, row.WriteAmp)
	}
}
