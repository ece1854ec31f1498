// Package workload implements the OLTP benchmark drivers used by the
// paper's evaluation: TPC-B, a TPC-C subset (New-Order, Payment,
// Order-Status), TATP and a LinkBench-like social-graph workload.
//
// The drivers are deterministic (seeded) generators that execute their
// transactions against the ipa engine. They reproduce the property the
// paper's analysis depends on: OLTP transactions mostly perform very small
// in-place updates (a few bytes of balances, counters or timestamps) on
// large database pages, plus a minority of inserts.
package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ipa"
)

// Workload is one OLTP benchmark driver.
type Workload interface {
	// Name returns the benchmark name (e.g. "tpcb").
	Name() string
	// Load populates the database (the load phase).
	Load(db *ipa.DB) error
	// RunOne executes a single transaction and reports whether it
	// committed (false means it was aborted and should be retried).
	RunOne(db *ipa.DB, r *rand.Rand) (bool, error)
}

// RunOptions bounds a measurement run: it ends after MaxOps committed
// transactions, so two write paths compared on one workload do the same
// work whatever their speed.
type RunOptions struct {
	MaxOps int
	Seed   int64
}

// RunResult summarises a measurement run.
type RunResult struct {
	Committed int
	Aborted   int
	Elapsed   time.Duration // virtual time consumed by the run
}

// Run executes transactions of w against db until opts.MaxOps have
// committed. Statistics windows are the caller's responsibility (call
// db.ResetStats after Load).
func Run(db *ipa.DB, w Workload, opts RunOptions) (RunResult, error) {
	if opts.MaxOps <= 0 {
		return RunResult{}, fmt.Errorf("workload: RunOptions needs MaxOps > 0")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 42
	}
	r := rand.New(rand.NewSource(seed))
	start := db.Now()
	var res RunResult
	for res.Committed < opts.MaxOps {
		ok, err := w.RunOne(db, r)
		if err != nil {
			return res, fmt.Errorf("workload %s: %w", w.Name(), err)
		}
		if ok {
			res.Committed++
		} else {
			res.Aborted++
		}
	}
	res.Elapsed = db.Now() - start
	return res, nil
}

// attempt runs body as one transaction: it commits when body succeeds and
// aborts when it fails. A conflict or a missing key is a clean abort —
// (false, nil), which Run counts and retries with a fresh draw; any other
// body error, or an abort or commit failure, is the run's error.
func attempt(db *ipa.DB, body func(tx *ipa.Tx) error) (bool, error) {
	tx := db.Begin()
	if err := body(tx); err != nil {
		if abortErr := tx.Abort(); abortErr != nil {
			return false, abortErr
		}
		if errors.Is(err, ipa.ErrConflict) || errors.Is(err, ipa.ErrKeyNotFound) {
			return false, nil
		}
		return false, err
	}
	if err := tx.Commit(); err != nil {
		return false, err
	}
	return true, nil
}

// randInt64 returns a uniform key in [0, n).
func randInt64(r *rand.Rand, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return r.Int63n(n)
}

// nonUniform implements the TPC-C NURand non-uniform distribution.
func nonUniform(r *rand.Rand, a, x, y int64) int64 {
	return ((r.Int63n(a+1) | (x + r.Int63n(y-x+1))) % (y - x + 1)) + x
}

// putInt64 encodes v little-endian into b[off:off+8].
func putInt64(b []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(b[off:], uint64(v))
}

// getInt64 decodes a little-endian int64 from b[off:off+8].
func getInt64(b []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(b[off:]))
}

// int64Bytes returns the little-endian encoding of v.
func int64Bytes(v int64) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(v))
}

// fill fills a tuple with a deterministic pattern so pages are not trivially
// compressible/erased.
func fill(b []byte, seed int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range b {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		b[i] = byte(x * 0x2545F4914F6CDD1D >> 56)
	}
}

// loadBatch is the number of rows a Loader commits per transaction: large
// enough that the per-commit log flush disappears from load time, small
// enough that a batch's record locks and undo stay trivial.
const loadBatch = 256

// Loader bulk-loads rows through the engine's one write path: every row is
// a Tx.Insert, committed loadBatch rows at a time. A batch is opened
// lazily, so a Loader that never inserts never begins a transaction.
type Loader struct {
	db *ipa.DB
	tx *ipa.Tx
	n  int
}

// NewLoader returns a loader for db.
func NewLoader(db *ipa.DB) *Loader { return &Loader{db: db} }

// Insert adds one row to the open batch and commits the batch when it is
// full. On an insert error the open batch is aborted — its rows are rolled
// back — and the error is returned; earlier batches stay committed.
func (l *Loader) Insert(t *ipa.Table, key int64, row []byte) error {
	if l.tx == nil {
		l.tx = l.db.Begin()
	}
	if err := l.tx.Insert(t, key, row); err != nil {
		_ = l.tx.Abort() // the insert error is the one worth reporting
		l.tx, l.n = nil, 0
		return err
	}
	if l.n++; l.n == loadBatch {
		return l.Commit()
	}
	return nil
}

// Commit commits the open batch, if any. Call it once after the last Insert.
func (l *Loader) Commit() error {
	if l.tx == nil {
		return nil
	}
	tx := l.tx
	l.tx, l.n = nil, 0
	return tx.Commit()
}

// finishLoad ends a workload's load phase: the loader's last batch is
// committed and every dirty page written out, so the measured run starts
// from a clean buffer pool.
func finishLoad(db *ipa.DB, ld *Loader) error {
	if err := ld.Commit(); err != nil {
		return err
	}
	return db.FlushAll()
}
