package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ipa"
	"ipa/internal/interleave"
)

// The read-skew ladder: transactions of readMixOpsPerTxn point operations
// at each of readMixPcts percent reads, readMixHotOpPct percent of them on
// the first readMixHotKeys keys. The hot set is where the two read modes
// diverge — under 2PL even two readers of the same hot key conflict (locks
// are exclusive), while snapshot readers never do. The log device is fast:
// this ladder is about lock contention, not group commit.
var readMixPcts = []int{50, 90, 99}

const (
	readMixOpsPerTxn       = 8
	readMixHotKeys         = 16
	readMixHotOpPct        = 40
	readMixLogFlushLatency = 20 * time.Microsecond
)

// readMixTuples is the shared keyspace size: small enough to make
// collisions common.
func readMixTuples(quick bool) int { return pick(quick, 1024, 512) }

// ReadMixRow is the outcome of one (read percentage, read mode) cell;
// Run.Aborted counts the transactions re-run after ErrConflict.
type ReadMixRow struct {
	ReadPct int
	Locked  bool // true = GetForUpdate baseline, false = snapshot reads
	Result
}

// ReadMixResult bundles the ladder; rows come in (snapshot, locked) pairs
// per read percentage.
type ReadMixResult struct {
	Options Options
	Rows    []ReadMixRow
}

// ReadMix runs the read-skew ladder: o.Threads clients run transactions
// over one SHARED keyspace (no partitioning — readers and writers collide
// on purpose), with the read fraction swept across readMixPcts. The
// clients' statements interleave on one goroutine in an order the seed
// draws, so transactions overlap and conflict, and every figure repeats.
// Every mix runs twice:
//
//   - snapshot: reads go through Tx.Get — lock-free MVCC snapshot reads;
//   - locked:   reads go through Tx.GetForUpdate — the strict-2PL baseline
//     where every read takes a record lock and conflicts abort.
//
// The gap between the two rows' conflicts is the benefit of multi-version
// readers: under 2PL read locks are what most transactions collide on.
func ReadMix(o Options) (ReadMixResult, error) {
	out := ReadMixResult{Options: o}
	for _, pct := range readMixPcts {
		for _, locked := range []bool{false, true} {
			row, err := runReadMix(o, pct, locked)
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// runReadMix measures one cell on a fresh database. Each transaction is
// readMixOpsPerTxn point operations, each a read with probability readPct%,
// one statement each; a retry draws new keys.
func runReadMix(o Options, readPct int, locked bool) (ReadMixRow, error) {
	tuples := readMixTuples(o.Quick)
	cfg := o.native(ipa.PSLC)
	cfg.LogFlushLatency = readMixLogFlushLatency
	res, err := drive("readmix", cfg, tuples, o.Threads, o.Ops, o.Seed, func(tbl *ipa.Table, c int) func(int) []interleave.Step {
		rnd := rand.New(rand.NewSource(o.Seed + int64(c)*7919))
		patch := []byte{byte(c), 0, 0}
		op := func(tx *ipa.Tx) error {
			var key int64
			if rnd.Intn(100) < readMixHotOpPct {
				key = int64(rnd.Intn(readMixHotKeys))
			} else {
				key = int64(rnd.Intn(tuples))
			}
			read := rnd.Intn(100) < readPct
			if read && !locked {
				_, err := tx.Get(tbl, key)
				return err
			}
			if _, err := tx.GetForUpdate(tbl, key); err != nil || read {
				return err
			}
			return tx.UpdateAt(tbl, key, 8, patch)
		}
		steps := make([]interleave.Step, readMixOpsPerTxn, readMixOpsPerTxn+1)
		for j := range steps {
			steps[j] = op
		}
		steps = append(steps, commit)
		return func(int) []interleave.Step { return steps }
	})
	return ReadMixRow{readPct, locked, res}, err
}

// Write renders the read-skew table.
func (r ReadMixResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Read-skew ladder: %d clients, %d-op txns over %d shared keys, %d%% of ops on %d hot keys (snapshot = MVCC Tx.Get, locked = 2PL GetForUpdate)\n",
		r.Options.Threads, readMixOpsPerTxn, readMixTuples(r.Options.Quick), readMixHotOpPct, readMixHotKeys)
	fmt.Fprintf(w, "%-6s %-9s %10s %9s %11s %11s %10s %9s\n",
		"read%", "reads", "committed", "retries", "lock acq", "lock confl", "snapReads", "verReads")
	for _, row := range r.Rows {
		mode := "snapshot"
		if row.Locked {
			mode = "locked"
		}
		fmt.Fprintf(w, "%-6d %-9s %10d %9d %11d %11d %10d %9d\n",
			row.ReadPct, mode, row.CommittedTxns, row.Run.Aborted,
			row.LockAcquisitions, row.LockConflicts, row.SnapshotReads, row.VersionReads)
	}
}
