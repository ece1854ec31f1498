package bench

import (
	"fmt"
	"io"

	"ipa"
	"ipa/internal/ipl"
	"ipa/internal/storage"
)

// IPLRow compares IPA and IPL on one workload: the engine run with
// write_delta, and the IPL simulator's replay of that run's trace.
type IPLRow struct {
	Workload string
	IPA      Result
	IPL      ipl.Stats
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
	cfg := o.native(ipa.PSLC)
	cfg.TraceEvictions = true
	var trace []storage.TraceEvent
	res, err := run(o, wl, cfg, func(db *ipa.DB) { trace = db.Trace() })
	if err != nil {
		return IPLRow{}, err
	}
	mgr, err := ipl.NewManager(ipl.DefaultConfig(cfg.PageSize, cfg.PagesPerBlock))
	if err != nil {
		return IPLRow{}, err
	}
	mgr.Replay(trace)
	return IPLRow{Workload: wl, IPA: res, IPL: mgr.Stats()}, nil
}

// Write renders the comparison: Flash writes (page and delta programs for
// IPA), erases and reads of both sides, how many fewer writes and erases
// IPA makes, and how many more reads IPL needs.
func (r IPLResult) Write(w io.Writer) {
	fmt.Fprintf(w, "IPA vs In-Page Logging (trace replay)\n")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %12s %12s %12s %12s %12s\n",
		"workload", "ipa writes", "ipl writes", "write red.", "ipa erases", "ipl erases", "erase red.",
		"ipa reads", "ipl reads", "read ovh.")
	for _, row := range r.Rows {
		s, l := row.IPA.Stats, row.IPL
		writes := s.FlashPagePrograms + s.FlashDeltaPrograms
		readOverhead := 0.0
		if s.FlashPageReads > 0 {
			readOverhead = 100 * (float64(l.TotalFlashReads())/float64(s.FlashPageReads) - 1)
		}
		fmt.Fprintf(w, "%-10s %12d %12d %+11.1f%% %12d %12d %+11.1f%% %12d %12d %+11.1f%%\n",
			row.Workload, writes, l.TotalFlashWrites(), reduction(writes, l.TotalFlashWrites()),
			s.FlashBlockErases, l.Erases, reduction(s.FlashBlockErases, l.Erases),
			s.FlashPageReads, l.TotalFlashReads(), readOverhead)
	}
}

// reduction is how much lower v is than other, in percent of other.
func reduction(v, other uint64) float64 {
	if other == 0 {
		return 0
	}
	return 100 * (1 - float64(v)/float64(other))
}
