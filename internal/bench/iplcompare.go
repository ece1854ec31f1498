package bench

import (
	"fmt"
	"io"

	"ipa"
	"ipa/internal/ipl"
	"ipa/internal/storage"
)

// IPLRow compares IPA and IPL for one workload.
type IPLRow struct {
	Workload string

	// IPA side (from the engine run with write_delta).
	IPAFlashWrites uint64 // physical page programs + delta programs
	IPAFlashReads  uint64
	IPAErases      uint64

	// IPL side (from the trace replay).
	IPLFlashWrites uint64
	IPLFlashReads  uint64
	IPLErases      uint64
	IPLStats       ipl.Stats

	WriteReductionPct float64 // fewer writes with IPA
	EraseReductionPct float64
	ReadOverheadPct   float64 // extra reads IPL needs vs IPA
}

// IPLResult is the full comparison.
type IPLResult struct {
	Rows []IPLRow
}

// IPLCompare is the IPA vs In-Page Logging comparison (experiment E4).
// Following footnote 1 of the paper, it replays the fetch/eviction trace of
// a benchmark run against the IPL simulator and compares the resulting
// Flash writes, reads and erases with the IPA run of the same trace, for
// every workload of the OLTP suite.
func IPLCompare(o Options) (IPLResult, error) {
	var out IPLResult
	for _, wl := range suiteWorkloads {
		row, err := iplCompareOne(wl, o)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func iplCompareOne(wl string, o Options) (IPLRow, error) {
	exp := o.native("ipl-"+wl, wl, ipa.PSLC)
	exp.TraceEvictions = true

	var trace []storage.TraceEvent
	res, err := run(exp, func(db *ipa.DB) { trace = db.Trace() })
	if err != nil {
		return IPLRow{}, err
	}

	iplCfg := ipl.DefaultConfig(exp.PageSize, exp.PagesPerBlock)
	mgr, err := ipl.NewManager(iplCfg)
	if err != nil {
		return IPLRow{}, err
	}
	mgr.Replay(trace)
	is := mgr.Stats()
	s := res.Stats

	row := IPLRow{
		Workload:       wl,
		IPAFlashWrites: s.FlashPagePrograms + s.FlashDeltaPrograms,
		IPAFlashReads:  s.FlashPageReads,
		IPAErases:      s.FlashBlockErases,
		IPLFlashWrites: is.TotalFlashWrites(),
		IPLFlashReads:  is.TotalFlashReads(),
		IPLErases:      is.Erases,
		IPLStats:       is,
	}
	if row.IPLFlashWrites > 0 {
		row.WriteReductionPct = 100 * (1 - float64(row.IPAFlashWrites)/float64(row.IPLFlashWrites))
	}
	if row.IPLErases > 0 {
		row.EraseReductionPct = 100 * (1 - float64(row.IPAErases)/float64(row.IPLErases))
	}
	if row.IPAFlashReads > 0 {
		row.ReadOverheadPct = 100 * (float64(row.IPLFlashReads)/float64(row.IPAFlashReads) - 1)
	}
	return row, nil
}

// Write renders the comparison.
func (r IPLResult) Write(w io.Writer) {
	fmt.Fprintf(w, "IPA vs In-Page Logging (trace replay)\n")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %12s %12s %12s %12s %12s\n",
		"workload", "ipa writes", "ipl writes", "write red.", "ipa erases", "ipl erases", "erase red.",
		"ipa reads", "ipl reads", "read ovh.")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %12d %12d %+11.1f%% %12d %12d %+11.1f%% %12d %12d %+11.1f%%\n",
			row.Workload, row.IPAFlashWrites, row.IPLFlashWrites, row.WriteReductionPct,
			row.IPAErases, row.IPLErases, row.EraseReductionPct,
			row.IPAFlashReads, row.IPLFlashReads, row.ReadOverheadPct)
	}
}
