package bench

import (
	"fmt"

	"ipa"
	"ipa/internal/interleave"
	"ipa/internal/workload"
)

// tupleSize is the row size of the table drive loads.
const tupleSize = 100

// client returns, for client c of a run on tbl, the statements of its i-th
// transaction; the last one ends it.
type client func(tbl *ipa.Table, c int) func(i int) []interleave.Step

// drive is measure around K clients: its load is tuples rows of tupleSize
// bytes in one table, its measured phase ops transactions split over
// clients clients as txn describes them, and Result.Run.Aborted counts the
// attempts a lock conflict re-ran. The clients run as programs of
// internal/interleave, stepped from one goroutine in an order drawn from
// seed, so the run is a function of it.
func drive(name string, cfg ipa.Config, tuples, clients, ops int, seed int64, txn client) (Result, error) {
	if clients <= 0 {
		return Result{}, fmt.Errorf("bench: %s: invalid client count %d", name, clients)
	}
	var tbl *ipa.Table
	load := func(db *ipa.DB) (err error) {
		if tbl, err = db.CreateTable(name, tupleSize); err != nil {
			return err
		}
		return loadRows(db, tbl, tuples, make([]byte, tupleSize))
	}
	return measure(name, cfg, load, func(db *ipa.DB) (workload.RunResult, error) {
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
		start := db.Now()
		retries, err := interleave.Run(db, seed, progs...)
		return workload.RunResult{Committed: ops, Aborted: int(retries), Elapsed: db.Now() - start}, err
	}, nil)
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
