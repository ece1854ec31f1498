package bench

import (
	"fmt"
	"io"

	"ipa"
)

// figure1Workloads are the four workloads the paper analyses.
var figure1Workloads = []string{"tpcb", "tpcc", "tatp", "linkbench"}

// Figure1Row is one workload's two arms: the traditional write path, whose
// dirty evictions the figure analyses, and IPA native Flash.
type Figure1Row struct {
	Workload    string
	Traditional Result
	IPA         Result
}

// TransferReduction is how much less IPA transfers to the device than the
// traditional path, in percent, per committed transaction so that arms of
// different lengths compare fairly.
func (r Figure1Row) TransferReduction() float64 {
	ts, is := r.Traditional.Stats, r.IPA.Stats
	if ts.HostBytesWritten == 0 {
		return 0
	}
	tradPerTxn := float64(ts.HostBytesWritten) / float64(max(1, ts.CommittedTxns))
	ipaPerTxn := float64(is.HostBytesWritten) / float64(max(1, is.CommittedTxns))
	return 100 * (1 - ipaPerTxn/tradPerTxn)
}

// Figure1Result is the full analysis.
type Figure1Result struct {
	Rows []Figure1Row
}

// Figure1 is the write-amplification analysis behind Figure 1 of the paper:
// for each OLTP workload, how many bytes does the DBMS actually modify per
// evicted dirty page, how much does the traditional approach write, and how
// much does IPA (write_delta) transfer instead.
func Figure1(o Options) (Figure1Result, error) {
	var out Figure1Result
	for _, wl := range figure1Workloads {
		row := Figure1Row{Workload: wl}
		var err error
		if row.Traditional, err = Run(o, wl, o.baseline()); err != nil {
			return out, err
		}
		if row.IPA, err = Run(o, wl, o.native(ipa.PSLC)); err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Write renders the analysis: per workload the traditional arm's dirty
// evictions, the share changing fewer than 100 bytes, the net modified
// bytes per eviction and the resulting write amplification, then IPA's.
func (r Figure1Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Figure 1: DBMS write-amplification, traditional vs In-Place Appends\n")
	fmt.Fprintf(w, "%-10s %10s %12s %12s %10s %14s %12s\n",
		"workload", "evictions", "<100B share", "avg changed", "write-amp", "IPA transfer", "in-place")
	for _, row := range r.Rows {
		ts := row.Traditional.Stats
		fmt.Fprintf(w, "%-10s %10d %11.1f%% %11.1fB %9.1fx %13.1f%% %11.1f%%\n",
			row.Workload, ts.DirtyEvictions, 100*ts.SmallEvictionShare(), avgChangedBytes(ts),
			ts.DBMSWriteAmplification(), row.TransferReduction(), 100*row.IPA.InPlaceShare())
	}
	fmt.Fprintf(w, "\nDistribution of net modified bytes per evicted dirty page:\n")
	for _, row := range r.Rows {
		ts := row.Traditional.Stats
		if ts.DirtyEvictions == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-10s", row.Workload)
		for i, count := range ts.EvictionSizeHistogram {
			label := "more"
			if i < len(ts.EvictionHistogramBounds) {
				label = fmt.Sprintf("<=%dB", ts.EvictionHistogramBounds[i])
			}
			fmt.Fprintf(w, " %s:%.1f%%", label, 100*float64(count)/float64(ts.DirtyEvictions))
		}
		fmt.Fprintln(w)
	}
}

// avgChangedBytes is the net modified bytes per dirty eviction of s.
func avgChangedBytes(s ipa.Stats) float64 {
	if s.DirtyEvictions == 0 {
		return 0
	}
	return float64(s.NetChangedBytes) / float64(s.DirtyEvictions)
}
