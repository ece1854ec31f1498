package bench

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"ipa"
)

// ConcurrentOptions configures the concurrency-scaling scenario: the same
// update-heavy workload is applied by an increasing number of goroutines
// against one database, and the aggregate wall-clock throughput is
// reported. The scenario exercises the sharded buffer pool (goroutines on
// different pages take different shard latches) and the group-commit WAL
// (concurrent commits share log flushes).
type ConcurrentOptions struct {
	// Goroutines is the ladder of worker counts (default 1, 2, 4, 8).
	Goroutines []int
	// Tuples is the number of rows loaded before the measurement
	// (default 4096); workers update disjoint slices of the key space.
	Tuples int
	// TupleSize is the row size in bytes (default 100).
	TupleSize int
	// Ops is the total number of committed update transactions per run,
	// split evenly across the goroutines (default 8000).
	Ops int
	// Mode, SchemeN/M and Flash configure the write path under test
	// (default IPA native Flash with the paper's 2×4 scheme on pSLC).
	Mode             ipa.WriteMode
	SchemeN, SchemeM int
	Flash            ipa.FlashMode
	// LogFlushLatency models the separate log device (default 100µs of
	// virtual time per WAL flush batch) so the group-commit saving is
	// visible in the virtual clock as well as in the batch statistics.
	LogFlushLatency time.Duration
	// LogFlushWallLatency is the real time the flush leader waits per WAL
	// flush batch (default 50µs), modelling the wall-clock cost of the
	// log-device sync. This is what lets concurrent commits actually pile
	// up into shared batches.
	LogFlushWallLatency time.Duration
	// Profile supplies the device sizing.
	Profile DeviceProfile
	Seed    int64
}

// DefaultConcurrentOptions returns the configuration used by cmd/ipabench.
func DefaultConcurrentOptions() ConcurrentOptions {
	return ConcurrentOptions{
		Goroutines:          []int{1, 2, 4, 8},
		Tuples:              4096,
		TupleSize:           100,
		Ops:                 8000,
		Mode:                ipa.IPANativeFlash,
		SchemeN:             2,
		SchemeM:             4,
		Flash:               ipa.PSLC,
		LogFlushLatency:     100 * time.Microsecond,
		LogFlushWallLatency: 50 * time.Microsecond,
		Profile:             DefaultProfile,
		Seed:                1,
	}
}

// ConcurrentRow is the outcome of one worker count.
type ConcurrentRow struct {
	Goroutines int
	Committed  uint64
	Conflicts  uint64 // transactions retried after a lock conflict
	Wall       time.Duration
	OpsPerSec  float64 // committed transactions per wall-clock second
	Speedup    float64 // relative to the first row of the ladder

	// Group-commit effectiveness.
	WALFlushes      uint64
	CommitsPerFlush float64
	MaxCommitBatch  uint64

	Stats ipa.Stats
}

// ConcurrentResult bundles the whole goroutine ladder.
type ConcurrentResult struct {
	Options ConcurrentOptions
	Rows    []ConcurrentRow
}

func (o ConcurrentOptions) withDefaults() ConcurrentOptions {
	d := DefaultConcurrentOptions()
	if len(o.Goroutines) == 0 {
		o.Goroutines = d.Goroutines
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

// Concurrent runs the concurrency-scaling scenario.
func Concurrent(o ConcurrentOptions) (ConcurrentResult, error) {
	o = o.withDefaults()
	out := ConcurrentResult{Options: o}
	for _, g := range o.Goroutines {
		if g <= 0 {
			return out, fmt.Errorf("bench: invalid goroutine count %d", g)
		}
		row, err := runConcurrent(o, g)
		if err != nil {
			return out, err
		}
		if len(out.Rows) > 0 && out.Rows[0].OpsPerSec > 0 {
			row.Speedup = row.OpsPerSec / out.Rows[0].OpsPerSec
		} else {
			row.Speedup = 1
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// runConcurrent measures one worker count on a fresh database.
func runConcurrent(o ConcurrentOptions, goroutines int) (ConcurrentRow, error) {
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
		return ConcurrentRow{}, fmt.Errorf("bench: concurrent: %w", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("concurrent", o.TupleSize)
	if err != nil {
		return ConcurrentRow{}, err
	}
	if err := loadRows(db, tbl, o.Tuples, make([]byte, o.TupleSize)); err != nil {
		return ConcurrentRow{}, fmt.Errorf("bench: concurrent load: %w", err)
	}
	db.ResetStats()

	perWorker, extraOps := o.Ops/goroutines, o.Ops%goroutines
	keysPerWorker := o.Tuples / goroutines
	if keysPerWorker == 0 {
		keysPerWorker = 1
	}
	var conflicts atomic.Uint64
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		ops := perWorker
		if w < extraOps {
			ops++
		}
		wg.Add(1)
		go func(w, perWorker int) {
			defer wg.Done()
			// Each worker owns a disjoint key slice and strides through it
			// so consecutive transactions land on different pages (and
			// therefore different buffer pool shards).
			base := int64(w * keysPerWorker)
			for i := 0; i < perWorker; i++ {
				key := base + int64(i*17)%int64(keysPerWorker)
				patch := []byte{byte(i), byte(i >> 8), byte(w)}
				for {
					tx := db.Begin()
					err := tx.UpdateAt(tbl, key, 8, patch)
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						break
					}
					_ = tx.Abort()
					if ipaConflict(err) {
						conflicts.Add(1)
						continue
					}
					errs <- fmt.Errorf("bench: concurrent worker %d: %w", w, err)
					return
				}
			}
		}(w, ops)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return ConcurrentRow{}, err
	}
	if err := db.FlushAll(); err != nil {
		return ConcurrentRow{}, err
	}
	s := db.Stats()
	r := ConcurrentRow{
		Goroutines:      goroutines,
		Committed:       s.CommittedTxns,
		Conflicts:       conflicts.Load(),
		Wall:            wall,
		WALFlushes:      s.WALFlushes,
		CommitsPerFlush: s.CommitsPerFlush(),
		MaxCommitBatch:  s.WALMaxCommitBatch,
		Stats:           s,
	}
	if wall > 0 {
		r.OpsPerSec = float64(s.CommittedTxns) / wall.Seconds()
	}
	return r, nil
}

// ipaConflict reports whether err is a record-lock conflict (retryable).
func ipaConflict(err error) bool {
	return errors.Is(err, ipa.ErrConflict)
}

// Write renders the scaling table.
func (r ConcurrentResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Concurrency scaling: %s, %d ops over disjoint keys (sharded pool + group-commit WAL)\n",
		r.Options.Mode, r.Options.Ops)
	fmt.Fprintf(w, "%-11s %10s %10s %12s %9s %12s %14s %9s\n",
		"goroutines", "committed", "conflicts", "wall", "ops/s", "wal flushes", "commits/flush", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-11d %10d %10d %12s %9.0f %12d %14.2f %8.2fx\n",
			row.Goroutines, row.Committed, row.Conflicts, row.Wall.Round(time.Millisecond),
			row.OpsPerSec, row.WALFlushes, row.CommitsPerFlush, row.Speedup)
	}
}
