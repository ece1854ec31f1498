package bench

import (
	"fmt"
	"io"

	"ipa"
)

// ScenarioResult bundles the three scenarios.
type ScenarioResult struct {
	Baseline Arm
	SSD      Arm
	Native   Arm
}

// Rows returns the scenarios in presentation order.
func (r ScenarioResult) Rows() []Arm { return []Arm{r.Baseline, r.SSD, r.Native} }

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
		arm   *Arm
		label string
		cfg   ipa.Config
	}{
		{&out.Baseline, "1: traditional", o.baseline()},
		{&out.SSD, "2: IPA conventional SSD", o.config(ipa.IPAConventionalSSD, o.scheme(), ipa.PSLC)},
		{&out.Native, "3: IPA native Flash", o.native(ipa.PSLC)},
	} {
		res, err := Run(o, "tpcb", c.cfg)
		if err != nil {
			return out, err
		}
		*c.arm = Arm{c.label, res}
	}
	return out, nil
}

// Write renders the comparison.
func (r ScenarioResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Demonstration scenarios: traditional vs IPA (conventional SSD) vs IPA (native Flash)\n")
	fmt.Fprintf(w, "%-26s %12s %16s %12s %14s %10s %12s %10s\n",
		"scenario", "host writes", "bytes to device", "in-place", "invalidations", "erases", "tps", "write-amp")
	for _, a := range r.Rows() {
		fmt.Fprintf(w, "%-26s %12d %16d %12d %14d %10d %12.1f %9.1fx\n",
			a.Label, a.TotalHostWrites(), a.HostBytesWritten, a.InPlaceAppends,
			a.Invalidations, a.GCErases, a.Throughput(), a.DBMSWriteAmplification())
	}
}
