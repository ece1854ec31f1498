package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ipa"
	"ipa/internal/workload"
)

// tupleSize is the row size of the table the concurrent experiments load.
const tupleSize = 100

// driven is what one run of the multi-goroutine driver measured.
type driven struct {
	Stats   ipa.Stats
	Retries uint64        // transactions re-run after a record-lock conflict
	Wall    time.Duration // wall-clock time of the measured phase
	Virtual time.Duration // device-clock time of the measured phase
}

// perSec is committed transactions per second of d.
func (r driven) perSec(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(r.Stats.CommittedTxns) / d.Seconds()
}

// drive is the multi-goroutine driver the concurrent experiments share:
// open a fresh database, load tuples rows of tupleSize bytes into one
// table, flush, reset the counters, fan ops transactions out over
// goroutines workers and flush again. worker is called once per goroutine
// (w is its index) and returns the body of that goroutine's i-th
// transaction; the driver begins and commits around it and re-runs a
// transaction that lost a record-lock conflict.
func drive(name string, cfg ipa.Config, tuples, goroutines, ops int,
	worker func(tbl *ipa.Table, w int) func(tx *ipa.Tx, i int) error) (driven, error) {
	if goroutines <= 0 {
		return driven{}, fmt.Errorf("bench: %s: invalid goroutine count %d", name, goroutines)
	}
	db, err := ipa.Open(cfg)
	if err != nil {
		return driven{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(name, tupleSize)
	if err != nil {
		return driven{}, err
	}
	if err := loadRows(db, tbl, tuples, make([]byte, tupleSize)); err != nil {
		return driven{}, fmt.Errorf("bench: %s load: %w", name, err)
	}
	if err := db.FlushAll(); err != nil {
		return driven{}, err
	}
	db.ResetStats()
	virtualStart := db.Now()

	var retries atomic.Uint64
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		n := ops / goroutines
		if w < ops%goroutines {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			body := worker(tbl, w)
			for i := 0; i < n; i++ {
				for {
					tx := db.Begin()
					err := body(tx, i)
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						break
					}
					_ = tx.Abort() // err is what the worker reports; a finished tx refuses the abort
					if errors.Is(err, ipa.ErrConflict) {
						retries.Add(1)
						continue
					}
					errs <- fmt.Errorf("bench: %s worker %d: %w", name, w, err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return driven{}, err
	}
	if err := db.FlushAll(); err != nil {
		return driven{}, err
	}
	return driven{Stats: db.Stats(), Retries: retries.Load(), Wall: wall, Virtual: db.Now() - virtualStart}, nil
}

// loadRows fills tbl with n copies of row under the keys 0..n-1, through
// the transactional loader.
func loadRows(db *ipa.DB, tbl *ipa.Table, n int, row []byte) error {
	ld := workload.NewLoader(db)
	for k := int64(0); k < int64(n); k++ {
		if err := ld.Insert(tbl, k, row); err != nil {
			return err
		}
	}
	return ld.Commit()
}

// stridedUpdates is the worker of the update-only ladders: each goroutine
// owns a disjoint slice of the key space and strides through it, so
// consecutive transactions land on different pages — and therefore on
// different buffer pool shards and, with page identifiers striped across
// chips, on different chips.
func stridedUpdates(tuples, goroutines, stride int) func(*ipa.Table, int) func(*ipa.Tx, int) error {
	span := max(tuples/max(goroutines, 1), 1)
	return func(tbl *ipa.Table, w int) func(*ipa.Tx, int) error {
		base := int64(w * span)
		return func(tx *ipa.Tx, i int) error {
			key := base + int64(i*stride)%int64(span)
			return tx.UpdateAt(tbl, key, 8, []byte{byte(i), byte(i >> 8), byte(w)})
		}
	}
}
