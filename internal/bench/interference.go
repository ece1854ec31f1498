package bench

import (
	"fmt"
	"io"
	"math/rand"

	"ipa"
	"ipa/internal/workload"
)

// interferenceProb is the per-reprogram probability of disturbing the
// paired page: deliberately aggressive so short runs show the effect.
const interferenceProb = 0.2

// InterferenceRow is the outcome for one MLC operation mode.
type InterferenceRow struct {
	Mode             ipa.FlashMode
	InPlaceAppends   uint64
	InterferenceBits uint64 // bit flips injected into paired pages
	CorrectedBits    uint64 // bit errors the ECC repaired on reads
	Uncorrectable    uint64 // reads that failed ECC verification
	Throughput       float64
}

// InterferenceResult is the comparison across modes.
type InterferenceResult struct {
	Rows []InterferenceRow
}

// Interference is the program-interference ablation of Section 3 of the
// paper: applying IPA on MLC Flash without the pSLC or odd-MLC precautions
// exposes appends on MSB-paired wordlines to parasitic capacitance
// coupling. The experiment injects interference faults into the NAND
// simulator while TPC-B runs and measures how many bit errors each MLC
// operation mode accumulates (and whether the ECC can still hide them).
func Interference(o Options) (InterferenceResult, error) {
	var out InterferenceResult
	for _, mode := range []ipa.FlashMode{ipa.MLCFull, ipa.OddMLC, ipa.PSLC} {
		row, err := interferenceOne(o, mode)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func interferenceOne(o Options, mode ipa.FlashMode) (InterferenceRow, error) {
	cfg := o.nativeConfig(mode)
	cfg.InterferenceProb, cfg.Analytic = interferenceProb, true
	db, err := ipa.Open(cfg)
	if err != nil {
		return InterferenceRow{}, err
	}
	defer db.Close()

	w, err := NewWorkload("tpcb", o.Scale, o.Seed)
	if err != nil {
		return InterferenceRow{}, err
	}
	if err := w.Load(db); err != nil {
		return InterferenceRow{}, fmt.Errorf("bench: interference %s load: %w", mode, err)
	}
	db.ResetStats()
	runTolerant(db, w, o.Ops, o.Seed+1)
	_ = db.FlushAll() // a corrupted page may surface here; keep the stats
	s := db.Stats()
	return InterferenceRow{
		Mode:             mode,
		InPlaceAppends:   s.InPlaceAppends,
		InterferenceBits: s.InterferenceBits,
		CorrectedBits:    s.CorrectedBits,
		Uncorrectable:    s.UncorrectableReads,
		Throughput:       s.Throughput(),
	}, nil
}

// runTolerant executes up to ops transactions but, unlike workload.Run,
// tolerates transaction failures caused by uncorrectable data corruption —
// the very effect this experiment provokes on unsafe MLC modes.
func runTolerant(db *ipa.DB, w workload.Workload, ops int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	failures := 0
	for committed := 0; committed < ops && failures < ops; {
		ok, err := w.RunOne(db, r)
		if err != nil {
			failures++
			continue
		}
		if ok {
			committed++
		} else {
			failures++
		}
	}
}

// Write renders the ablation.
func (r InterferenceResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Program interference on MLC Flash (fault injection enabled)\n")
	fmt.Fprintf(w, "%-10s %14s %18s %16s %16s %12s\n",
		"mode", "appends", "interference bits", "ECC corrected", "uncorrectable", "tps")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %14d %18d %16d %16d %12.1f\n",
			row.Mode, row.InPlaceAppends, row.InterferenceBits, row.CorrectedBits, row.Uncorrectable, row.Throughput)
	}
}
