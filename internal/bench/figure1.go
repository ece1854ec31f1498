package bench

import (
	"fmt"
	"io"

	"ipa"
)

// figure1Workloads are the four workloads the paper analyses.
var figure1Workloads = []string{"tpcb", "tpcc", "tatp", "linkbench"}

// Figure1Row summarises one workload.
type Figure1Row struct {
	Workload string

	// Traditional write path.
	DirtyEvictions     uint64
	SmallEvictionShare float64 // fraction of dirty evictions changing < 100 bytes
	AvgChangedBytes    float64 // net modified bytes per dirty eviction
	PageBytesWritten   uint64  // bytes the traditional approach transfers
	WriteAmplification float64 // transferred / modified
	// Histogram is the distribution of net modified bytes per dirty
	// eviction; HistogramBounds holds the inclusive upper bound of each
	// bucket (the last histogram entry counts larger evictions).
	Histogram       []uint64
	HistogramBounds []int

	// IPA (native) write path on the same workload.
	IPABytesWritten  uint64  // bytes transferred with write_delta available
	IPAReductionPct  float64 // transfer reduction vs traditional
	IPAInPlaceShare  float64 // fraction of host writes served in place
	DeltaBytes       uint64  // bytes carried inside delta records
	IPAAppendedPages uint64  // evictions served as appends
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
		trad := o.baseline("fig1-"+wl+"-traditional", wl)
		native := o.native("fig1-"+wl+"-ipa", wl, ipa.PSLC)

		tradRes, err := Run(trad)
		if err != nil {
			return out, err
		}
		ipaRes, err := Run(native)
		if err != nil {
			return out, err
		}

		ts, is := tradRes.Stats, ipaRes.Stats
		row := Figure1Row{
			Workload:           wl,
			DirtyEvictions:     ts.DirtyEvictions,
			SmallEvictionShare: ts.SmallEvictionShare(),
			PageBytesWritten:   ts.HostBytesWritten,
			WriteAmplification: ts.DBMSWriteAmplification(),
			Histogram:          ts.EvictionSizeHistogram[:],
			HistogramBounds:    ts.EvictionHistogramBounds,
			IPABytesWritten:    is.HostBytesWritten,
			IPAInPlaceShare:    is.InPlaceShare(),
			DeltaBytes:         is.DeltaBytesWritten,
			IPAAppendedPages:   is.IPAAppendEvictions,
		}
		if ts.DirtyEvictions > 0 {
			row.AvgChangedBytes = float64(ts.NetChangedBytes) / float64(ts.DirtyEvictions)
		}
		if ts.HostBytesWritten > 0 {
			// Normalise the IPA transfer volume by the work performed, so
			// runs with different committed-transaction counts compare
			// fairly.
			tradPerTxn := float64(ts.HostBytesWritten) / float64(max(1, ts.CommittedTxns))
			ipaPerTxn := float64(is.HostBytesWritten) / float64(max(1, is.CommittedTxns))
			row.IPAReductionPct = 100 * (1 - ipaPerTxn/tradPerTxn)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Write renders the analysis.
func (r Figure1Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Figure 1: DBMS write-amplification, traditional vs In-Place Appends\n")
	fmt.Fprintf(w, "%-10s %10s %12s %12s %10s %14s %12s\n",
		"workload", "evictions", "<100B share", "avg changed", "write-amp", "IPA transfer", "in-place")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %10d %11.1f%% %11.1fB %9.1fx %13.1f%% %11.1f%%\n",
			row.Workload, row.DirtyEvictions, 100*row.SmallEvictionShare, row.AvgChangedBytes,
			row.WriteAmplification, row.IPAReductionPct, 100*row.IPAInPlaceShare)
	}
	fmt.Fprintf(w, "\nDistribution of net modified bytes per evicted dirty page:\n")
	for _, row := range r.Rows {
		if row.DirtyEvictions == 0 || len(row.Histogram) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-10s", row.Workload)
		for i, count := range row.Histogram {
			label := "more"
			if i < len(row.HistogramBounds) {
				label = fmt.Sprintf("<=%dB", row.HistogramBounds[i])
			}
			fmt.Fprintf(w, " %s:%.1f%%", label, 100*float64(count)/float64(row.DirtyEvictions))
		}
		fmt.Fprintln(w)
	}
}
