package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ipa"
	"ipa/internal/interleave"
	"ipa/internal/workload"
)

// tupleSize is the row size of the table the concurrent experiments load.
const tupleSize = 100

// client returns, for client c of a run on tbl, the statements of its i-th
// transaction; the last one ends it.
type client func(tbl *ipa.Table, c int) func(i int) []interleave.Step

// drive is measure around K clients: its load is tuples rows of tupleSize
// bytes in one table, its measured phase ops transactions split over
// clients clients as txn describes them, and Result.Run.Aborted counts the
// attempts a lock conflict re-ran. The clients run as programs of
// internal/interleave: stepped from one goroutine in an order drawn from
// seed, so the run is a function of it — or, with parallel set (-exp
// concurrent, which measures what needs real goroutines: group-commit
// batching and latch contention), each on a goroutine of its own. drive
// also returns the wall-clock time of the measured phase.
func drive(name string, cfg ipa.Config, tuples, clients, ops int, seed int64, parallel bool, txn client) (Result, time.Duration, error) {
	if clients <= 0 {
		return Result{}, 0, fmt.Errorf("bench: %s: invalid client count %d", name, clients)
	}
	var tbl *ipa.Table
	load := func(db *ipa.DB) (err error) {
		if tbl, err = db.CreateTable(name, tupleSize); err != nil {
			return err
		}
		return loadRows(db, tbl, tuples, make([]byte, tupleSize))
	}
	var wall time.Duration
	res, err := measure(name, cfg, load, func(db *ipa.DB) (workload.RunResult, error) {
		progs := make([]interleave.Program, clients)
		for c := range progs {
			next, n, i := txn(tbl, c), ops/clients, 0
			if c < ops%clients {
				n++
			}
			progs[c] = func() []interleave.Step {
				if i == n {
					return nil
				}
				i++
				return next(i - 1)
			}
		}
		virtualStart, start := db.Now(), time.Now()
		retries, errs := make([]uint64, clients), make([]error, clients)
		if parallel {
			var wg sync.WaitGroup
			for c, p := range progs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					retries[c], errs[c] = interleave.Run(db, seed, p)
				}()
			}
			wg.Wait()
		} else {
			retries[0], errs[0] = interleave.Run(db, seed, progs...)
		}
		wall = time.Since(start)
		ran := workload.RunResult{Committed: ops, Elapsed: db.Now() - virtualStart}
		for _, n := range retries {
			ran.Aborted += int(n)
		}
		return ran, errors.Join(errs...)
	}, nil)
	return res, wall, err
}

// commit is the last statement of a transaction that commits.
func commit(tx *ipa.Tx) error { return tx.Commit() }

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

// stridedUpdates is the transaction of the update-only ladders, one update
// and the commit: each client owns a disjoint slice of the key space and
// strides through it, so consecutive transactions land on different pages —
// and therefore on different buffer pool shards and, with page identifiers
// striped across chips, on different chips.
func stridedUpdates(tuples, clients, stride int) client {
	span := max(tuples/max(clients, 1), 1)
	return func(tbl *ipa.Table, c int) func(int) []interleave.Step {
		base := int64(c * span)
		return func(i int) []interleave.Step {
			key := base + int64(i*stride)%int64(span)
			update := func(tx *ipa.Tx) error { return tx.UpdateAt(tbl, key, 8, []byte{byte(i), byte(i >> 8), byte(c)}) }
			return []interleave.Step{update, commit}
		}
	}
}
