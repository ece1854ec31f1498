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
	Workload     string  `json:"workload"`
	Distribution string  `json:"distribution"`
	HeapFactor   float64 `json:"heap_factor"` // heap bytes / buffer pool bytes
	Records      int     `json:"records"`
	Committed    int     `json:"committed"`
	Aborted      int     `json:"aborted"`
	// TPS is committed operations per virtual device second. Reads are
	// lock-free snapshot reads, not transactions, so this is derived from
	// the run's op count, not from Stats.CommittedTxns. 0 means the run
	// consumed no virtual device time at all (fully cached reads).
	TPS         float64 `json:"tps"`
	Erases      uint64  `json:"erases"`
	GCErases    uint64  `json:"gc_erases"`
	IPASharePct float64 `json:"ipa_share_pct"` // in-place appends / (appends + out-of-place)
	HitRatePct  float64 `json:"buffer_hit_pct"`
	DirtyEvicts uint64  `json:"dirty_evictions"`
	ErasesPerOp float64 `json:"erases_per_host_write"`
}

// YCSBResult is the full family sweep.
type YCSBResult struct {
	Rows []YCSBRow `json:"rows"`
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
			res, err := measure(w.Name(), o.nativeConfig(ipa.PSLC), w, workload.RunOptions{MaxOps: o.Ops, Seed: o.Seed + 1}, nil)
			if err != nil {
				return out, err
			}
			s, run := res.Stats, res.Run

			hitRate := 0.0
			if tot := s.BufferHits + s.BufferMisses; tot > 0 {
				hitRate = 100 * float64(s.BufferHits) / float64(tot)
			}
			tps := 0.0
			if run.Elapsed > 0 {
				tps = float64(run.Committed) / run.Elapsed.Seconds()
			}
			out.Rows = append(out.Rows, YCSBRow{
				Workload:     w.Name(),
				Distribution: w.Config().Distribution,
				HeapFactor:   factor,
				Records:      cfg.Records,
				Committed:    run.Committed,
				Aborted:      run.Aborted,
				TPS:          tps,
				Erases:       s.FlashBlockErases,
				GCErases:     s.GCErases,
				IPASharePct:  100 * s.InPlaceShare(),
				HitRatePct:   hitRate,
				DirtyEvicts:  s.DirtyEvictions,
				ErasesPerOp:  s.ErasesPerHostWrite(),
			})
		}
	}
	return out, nil
}

// Write renders the sweep as a plain-text table.
func (r YCSBResult) Write(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-8s %6s %8s %10s %8s %8s %7s %7s %9s\n",
		"workload", "dist", "heap", "records", "tps", "erases", "gc-er", "ipa%", "hit%", "evictions")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %-8s %5.1fx %8d %10.0f %8d %8d %6.1f%% %6.1f%% %9d\n",
			row.Workload, row.Distribution, row.HeapFactor, row.Records,
			row.TPS, row.Erases, row.GCErases, row.IPASharePct, row.HitRatePct, row.DirtyEvicts)
	}
}
