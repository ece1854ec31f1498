package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ipa"
)

// ReadMixOptions configures the read-skew ladder: N goroutines run
// transactions of OpsPerTxn point operations over one SHARED keyspace (no
// partitioning — readers and writers collide on purpose), with the read
// fraction swept across ReadPcts. Every mix runs twice:
//
//   - snapshot: reads go through Tx.Get — lock-free MVCC snapshot reads;
//   - locked:   reads go through Tx.GetForUpdate — the strict-2PL baseline
//     where every read takes a record lock and conflicts abort.
//
// The gap between the two rows of a mix is the benefit of multi-version
// readers; it widens with the read share because under 2PL read locks are
// what most transactions collide on.
type ReadMixOptions struct {
	// Goroutines is the worker count (default 8).
	Goroutines int
	// ReadPcts is the ladder of read percentages (default 50, 90, 99).
	ReadPcts []int
	// Tuples is the shared keyspace size (default 1024 — small enough to
	// make collisions common).
	Tuples int
	// TupleSize is the row size in bytes (default 100).
	TupleSize int
	// Ops is the number of committed transactions per run, split across
	// the goroutines (default 4000).
	Ops int
	// OpsPerTxn is the number of point operations per transaction
	// (default 4).
	OpsPerTxn int
	// HotKeys and HotOpPct skew the access pattern: HotOpPct percent of
	// operations land on the first HotKeys keys (defaults 16 and 25).
	// The hot set is where the two read modes diverge — under 2PL even
	// two readers of the same hot key conflict (locks are exclusive),
	// while snapshot readers never do.
	HotKeys  int
	HotOpPct int
	// Mode, SchemeN/M and Flash configure the write path under test.
	Mode             ipa.WriteMode
	SchemeN, SchemeM int
	Flash            ipa.FlashMode
	// LogFlushLatency / LogFlushWallLatency mirror ConcurrentOptions.
	LogFlushLatency     time.Duration
	LogFlushWallLatency time.Duration
	Profile             DeviceProfile
	Seed                int64
}

// DefaultReadMixOptions returns the configuration used by cmd/ipabench.
func DefaultReadMixOptions() ReadMixOptions {
	return ReadMixOptions{
		Goroutines: 8,
		ReadPcts:   []int{50, 90, 99},
		Tuples:     1024,
		TupleSize:  100,
		Ops:        4000,
		OpsPerTxn:  8,
		HotKeys:    16,
		HotOpPct:   40,
		Mode:       ipa.IPANativeFlash,
		SchemeN:    2,
		SchemeM:    4,
		Flash:      ipa.PSLC,
		// A fast log device (vs the concurrency-scaling scenario's 50µs):
		// this ladder is about lock contention, not group commit, so the
		// flush must not dominate the per-transaction cost.
		LogFlushLatency:     20 * time.Microsecond,
		LogFlushWallLatency: 5 * time.Microsecond,
		Profile:             DefaultProfile,
		Seed:                1,
	}
}

// ReadMixRow is the outcome of one (read percentage, read mode) cell.
type ReadMixRow struct {
	ReadPct   int
	Locked    bool // true = GetForUpdate baseline, false = snapshot reads
	Committed uint64
	Retries   uint64 // transactions re-run after ErrConflict
	Wall      time.Duration
	OpsPerSec float64

	// Lock-table pressure and MVCC activity for the run.
	LockAcquisitions uint64
	LockConflicts    uint64
	SnapshotReads    uint64
	VersionReads     uint64

	Stats ipa.Stats
}

// ReadMixResult bundles the ladder; rows come in (snapshot, locked) pairs
// per read percentage.
type ReadMixResult struct {
	Options ReadMixOptions
	Rows    []ReadMixRow
}

func (o ReadMixOptions) withDefaults() ReadMixOptions {
	d := DefaultReadMixOptions()
	if o.Goroutines <= 0 {
		o.Goroutines = d.Goroutines
	}
	if len(o.ReadPcts) == 0 {
		o.ReadPcts = d.ReadPcts
	}
	if o.Tuples <= 0 {
		o.Tuples = d.Tuples
	}
	if o.TupleSize <= 0 {
		o.TupleSize = d.TupleSize
	}
	if o.Ops <= 0 {
		o.Ops = d.Ops
	}
	if o.OpsPerTxn <= 0 {
		o.OpsPerTxn = d.OpsPerTxn
	}
	if o.HotKeys <= 0 {
		o.HotKeys = d.HotKeys
	}
	if o.HotKeys > o.Tuples {
		o.HotKeys = o.Tuples
	}
	if o.HotOpPct <= 0 {
		o.HotOpPct = d.HotOpPct
	}
	if o.SchemeN == 0 && o.SchemeM == 0 {
		o.SchemeN, o.SchemeM = d.SchemeN, d.SchemeM
		if o.Mode == ipa.Traditional {
			o.Mode = d.Mode
			o.Flash = d.Flash
		}
	}
	if o.LogFlushLatency == 0 {
		o.LogFlushLatency = d.LogFlushLatency
	}
	if o.LogFlushWallLatency == 0 {
		o.LogFlushWallLatency = d.LogFlushWallLatency
	}
	if o.Profile == (DeviceProfile{}) {
		o.Profile = d.Profile
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// ReadMix runs the read-skew ladder.
func ReadMix(o ReadMixOptions) (ReadMixResult, error) {
	o = o.withDefaults()
	out := ReadMixResult{Options: o}
	for _, pct := range o.ReadPcts {
		if pct < 0 || pct > 100 {
			return out, fmt.Errorf("bench: invalid read percentage %d", pct)
		}
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

// runReadMix measures one cell on a fresh database.
func runReadMix(o ReadMixOptions, readPct int, locked bool) (ReadMixRow, error) {
	cfg := ipa.Config{
		PageSize:            o.Profile.PageSize,
		Blocks:              o.Profile.Blocks,
		PagesPerBlock:       o.Profile.PagesPerBlock,
		BufferPoolPages:     o.Profile.BufferPoolPages,
		WriteMode:           o.Mode,
		Scheme:              ipa.Scheme{N: o.SchemeN, M: o.SchemeM},
		FlashMode:           o.Flash,
		LogFlushLatency:     o.LogFlushLatency,
		LogFlushWallLatency: o.LogFlushWallLatency,
		Seed:                o.Seed,
	}
	db, err := ipa.Open(cfg)
	if err != nil {
		return ReadMixRow{}, fmt.Errorf("bench: readmix: %w", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("readmix", o.TupleSize)
	if err != nil {
		return ReadMixRow{}, err
	}
	if err := loadRows(db, tbl, o.Tuples, make([]byte, o.TupleSize)); err != nil {
		return ReadMixRow{}, fmt.Errorf("bench: readmix load: %w", err)
	}
	db.ResetStats()

	perWorker, extraOps := o.Ops/o.Goroutines, o.Ops%o.Goroutines
	var retries atomic.Uint64
	errs := make(chan error, o.Goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.Goroutines; w++ {
		ops := perWorker
		if w < extraOps {
			ops++
		}
		wg.Add(1)
		go func(w, ops int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(o.Seed + int64(w)*7919))
			patch := []byte{byte(w), 0, 0}
			for i := 0; i < ops; i++ {
				for {
					err := runMixTxn(db, tbl, r, o, readPct, locked, patch)
					if err == nil {
						break
					}
					if ipaConflict(err) {
						retries.Add(1)
						continue
					}
					errs <- fmt.Errorf("bench: readmix worker %d: %w", w, err)
					return
				}
			}
		}(w, ops)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return ReadMixRow{}, err
	}
	if err := db.FlushAll(); err != nil {
		return ReadMixRow{}, err
	}
	s := db.Stats()
	out := ReadMixRow{
		ReadPct:          readPct,
		Locked:           locked,
		Committed:        s.CommittedTxns,
		Retries:          retries.Load(),
		Wall:             wall,
		LockAcquisitions: s.LockAcquisitions,
		LockConflicts:    s.LockConflicts,
		SnapshotReads:    s.SnapshotReads,
		VersionReads:     s.VersionReads,
		Stats:            s,
	}
	if wall > 0 {
		out.OpsPerSec = float64(s.CommittedTxns) / wall.Seconds()
	}
	return out, nil
}

// runMixTxn executes one transaction of the mix: OpsPerTxn point
// operations on uniformly random keys of the shared keyspace, each a read
// with probability readPct%.
func runMixTxn(db *ipa.DB, tbl *ipa.Table, r *rand.Rand, o ReadMixOptions, readPct int, locked bool, patch []byte) error {
	tx := db.Begin()
	for j := 0; j < o.OpsPerTxn; j++ {
		var key int64
		if r.Intn(100) < o.HotOpPct {
			key = int64(r.Intn(o.HotKeys))
		} else {
			key = int64(r.Intn(o.Tuples))
		}
		if r.Intn(100) < readPct {
			var err error
			if locked {
				_, err = tx.GetForUpdate(tbl, key)
			} else {
				_, err = tx.Get(tbl, key)
			}
			if err != nil {
				_ = tx.Abort()
				return err
			}
			continue
		}
		if _, err := tx.GetForUpdate(tbl, key); err != nil {
			_ = tx.Abort()
			return err
		}
		if err := tx.UpdateAt(tbl, key, 8, patch); err != nil {
			_ = tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// Write renders the read-skew table.
func (r ReadMixResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Read-skew ladder: %d goroutines, %d-op txns over %d shared keys, %d%% of ops on %d hot keys (snapshot = MVCC Tx.Get, locked = 2PL GetForUpdate)\n",
		r.Options.Goroutines, r.Options.OpsPerTxn, r.Options.Tuples, r.Options.HotOpPct, r.Options.HotKeys)
	fmt.Fprintf(w, "%-6s %-9s %10s %9s %12s %9s %11s %11s %10s %9s\n",
		"read%", "reads", "committed", "retries", "wall", "ops/s", "lock acq", "lock confl", "snapReads", "verReads")
	var prev float64
	for _, row := range r.Rows {
		mode := "snapshot"
		if row.Locked {
			mode = "locked"
		}
		fmt.Fprintf(w, "%-6d %-9s %10d %9d %12s %9.0f %11d %11d %10d %9d",
			row.ReadPct, mode, row.Committed, row.Retries, row.Wall.Round(time.Millisecond),
			row.OpsPerSec, row.LockAcquisitions, row.LockConflicts, row.SnapshotReads, row.VersionReads)
		if row.Locked && prev > 0 && row.OpsPerSec > 0 {
			fmt.Fprintf(w, "  (snapshot %+.0f%%)", (prev/row.OpsPerSec-1)*100)
		}
		fmt.Fprintln(w)
		prev = row.OpsPerSec
	}
}
