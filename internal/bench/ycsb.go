package bench

import (
	"fmt"
	"io"

	"ipa"
	"ipa/internal/workload"
)

// The YCSB family: every letter at two heap sizings — cache-sized (half the
// buffer pool, the working set stays resident) and the paper-motivated
// larger-than-memory point (8× the pool, so every hot page cycles through
// eviction → delta-merge → GC → wear-levelling) — with the workload's
// 120-byte tuples whose updates and read-modify-writes patch the last 8
// bytes.
var (
	ycsbLetters     = []byte{'A', 'B', 'C', 'D', 'E', 'F'}
	ycsbHeapFactors = []float64{0.5, 8}
)

// YCSBRow is the outcome of one (workload, heap sizing) run.
type YCSBRow struct {
	Workload     string
	Distribution string
	HeapFactor   float64 // heap bytes / buffer pool bytes
	Records      int
	Result
}

// YCSBResult is the full family sweep.
type YCSBResult struct {
	Rows []YCSBRow
}

// ycsbRecords sizes the keyspace so the heap is roughly factor × the
// buffer pool. Tuples per heap page are estimated conservatively (page
// header + per-slot overhead), which is accurate enough for the sizing's
// purpose: factor < 1 keeps the working set resident, factor ≥ 8 forces
// continuous eviction.
func ycsbRecords(p DeviceProfile, factor float64) int {
	perPage := (p.PageSize - 128) / (workload.YCSBValueSize + 16)
	if perPage < 1 {
		perPage = 1
	}
	records := int(factor * float64(p.BufferPoolPages) * float64(perPage))
	if records < 256 {
		records = 256
	}
	// Keep the heap within half the device (GC needs free-block headroom,
	// and pSLC halves the capacity).
	maxRecords := p.Blocks * p.PagesPerBlock / 4 * perPage
	if records > maxRecords {
		records = maxRecords
	}
	return records
}

// YCSB runs every workload letter at every heap factor on IPA native Flash
// [N×M] pSLC, o.Ops committed operations each.
func YCSB(o Options) (YCSBResult, error) {
	var out YCSBResult
	for _, letter := range ycsbLetters {
		for _, factor := range ycsbHeapFactors {
			cfg := workload.YCSBConfig{
				Letter:  letter,
				Records: ycsbRecords(o.Profile, factor),
				Seed:    o.Seed + int64(letter),
			}
			w, err := workload.NewYCSB(cfg)
			if err != nil {
				return out, err
			}
			res, err := measure(w.Name(), o.native(ipa.PSLC), w.Load, transactions(w, o.Ops, o.Seed+1), nil)
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, YCSBRow{w.Name(), w.Config().Distribution, factor, cfg.Records, res})
		}
	}
	return out, nil
}

// Write renders the sweep as a plain-text table.
func (r YCSBResult) Write(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-8s %6s %8s %10s %8s %8s %7s %7s %9s\n",
		"workload", "dist", "heap", "records", "tps", "erases", "gc-er", "ipa%", "hit%", "evictions")
	for _, row := range r.Rows {
		// Reads are lock-free snapshot reads, not transactions, so tps is
		// the run's committed operations per virtual second; 0 means the
		// run consumed no device time at all (fully cached reads).
		tps, hits := 0.0, 0.0
		if run := row.Run; run.Elapsed > 0 {
			tps = float64(run.Committed) / run.Elapsed.Seconds()
		}
		if tot := row.BufferHits + row.BufferMisses; tot > 0 {
			hits = 100 * float64(row.BufferHits) / float64(tot)
		}
		fmt.Fprintf(w, "%-8s %-8s %5.1fx %8d %10.0f %8d %8d %6.1f%% %6.1f%% %9d\n",
			row.Workload, row.Distribution, row.HeapFactor, row.Records,
			tps, row.FlashBlockErases, row.GCErases, 100*row.InPlaceShare(), hits, row.DirtyEvictions)
	}
}
