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

// InterferenceResult is the comparison across modes, one arm per MLC
// operation mode (its Stats.FlashMode).
type InterferenceResult struct {
	Rows []Result
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

// interferenceOne measures one mode. It is the one arm that does not run
// by measure: the corruption it provokes on the unsafe modes fails
// transactions and may fail the final flush, and the arm's figures are
// exactly what was counted up to there.
func interferenceOne(o Options, mode ipa.FlashMode) (Result, error) {
	cfg := o.native(mode)
	cfg.InterferenceProb = interferenceProb
	db, err := ipa.Open(cfg)
	if err != nil {
		return Result{}, err
	}
	defer db.Close()

	w, err := NewWorkload("tpcb", o.Scale, o.Seed)
	if err != nil {
		return Result{}, err
	}
	if err := w.Load(db); err != nil {
		return Result{}, fmt.Errorf("bench: interference %s load: %w", mode, err)
	}
	db.ResetStats()
	ran := runTolerant(db, w, o.Ops, o.Seed+1)
	_ = db.FlushAll() // a corrupted page may surface here; keep the stats
	return Result{Stats: db.Stats(), Run: ran}, nil
}

// runTolerant executes up to ops transactions but, unlike workload.Run,
// tolerates transaction failures caused by uncorrectable data corruption —
// the very effect this experiment provokes on unsafe MLC modes. Aborted
// counts the failed ones.
func runTolerant(db *ipa.DB, w workload.Workload, ops int, seed int64) workload.RunResult {
	r := rand.New(rand.NewSource(seed))
	var ran workload.RunResult
	start := db.Now()
	for ran.Committed < ops && ran.Aborted < ops {
		if ok, err := w.RunOne(db, r); err == nil && ok {
			ran.Committed++
		} else {
			ran.Aborted++
		}
	}
	ran.Elapsed = db.Now() - start
	return ran
}

// Write renders the ablation.
func (r InterferenceResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Program interference on MLC Flash (fault injection enabled)\n")
	fmt.Fprintf(w, "%-10s %14s %18s %16s %16s %12s\n",
		"mode", "appends", "interference bits", "ECC corrected", "uncorrectable", "tps")
	for _, s := range r.Rows {
		fmt.Fprintf(w, "%-10s %14d %18d %16d %16d %12.1f\n",
			s.FlashMode, s.InPlaceAppends, s.InterferenceBits, s.CorrectedBits, s.UncorrectableReads, s.Throughput())
	}
}
