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

// driven is what one run of a concurrent experiment measured.
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

// client returns, for client c of a run on tbl, the statements of its i-th
// transaction; the last one ends it.
type client func(tbl *ipa.Table, c int) func(i int) []interleave.Step

// drive is the driver the concurrent experiments share: open a fresh
// database, load tuples rows of tupleSize bytes into one table, flush,
// reset the counters, run ops transactions split over clients clients as
// txn describes them, and flush again. The clients run as programs of
// internal/interleave: stepped from one goroutine in an order drawn from
// seed, so the run is a function of it — or, with parallel set (-exp
// concurrent, which measures what needs real goroutines: group-commit
// batching and latch contention), each on a goroutine of its own.
func drive(name string, cfg ipa.Config, tuples, clients, ops int, seed int64, parallel bool, txn client) (driven, error) {
	if clients <= 0 {
		return driven{}, fmt.Errorf("bench: %s: invalid client count %d", name, clients)
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
	db.ResetStats()
	virtualStart := db.Now()
	start := time.Now()
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
	wall := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return driven{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	if err := db.FlushAll(); err != nil {
		return driven{}, err
	}
	r := driven{Stats: db.Stats(), Wall: wall, Virtual: db.Now() - virtualStart}
	for _, n := range retries {
		r.Retries += n
	}
	return r, nil
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
