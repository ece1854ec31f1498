package ipa

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"ipa/internal/buffer"
	"ipa/internal/flashdev"
	"ipa/internal/ftl"
	"ipa/internal/stat"
	"ipa/internal/storage"
	"ipa/internal/txn"
	"ipa/internal/wal"
)

// The layers' counter sets, named as Stats embeds them. Each is declared
// once, in its layer, and the layer's own value of it is the live set.
type (
	// FTLStats is host I/O, the write-path outcome and garbage collection
	// at the Flash translation layer: the rows of Table 1.
	FTLStats = ftl.Stats
	// DeviceStats is the raw Flash operations of the device.
	DeviceStats = flashdev.Stats
	// StorageStats is the storage manager's eviction behaviour (Figure 1)
	// and its index-page slice: primary-key and secondary entry pages.
	StorageStats = storage.Stats
	// BufferStats is the buffer pool's hits, misses and write-backs.
	BufferStats = buffer.Stats
	// GroupCommitStats is the log's durable bytes and flushes, and the
	// commits those flushes served.
	GroupCommitStats = wal.GroupCommitStats
	// VersionStats is the MVCC version cache's work: SnapshotReads counts
	// chain resolutions, VersionReads how many of them were served from a
	// superseded version rather than the heap slot (reads that 2PL would
	// have blocked or answered dirtily).
	VersionStats = txn.VersionStats
)

// TxnStats are the counters the database keeps itself. Readers run
// lock-free against MVCC snapshots; only writers take record locks, so
// LockAcquisitions counts writer lock grants and LockConflicts no-wait
// denials (ErrConflict). The database's own value is the live set.
type TxnStats struct {
	CommittedTxns    uint64
	AbortedTxns      uint64
	LockAcquisitions uint64
	LockConflicts    uint64
	ZombiesReclaimed uint64 // index entries the MVCC GC dropped
	Checkpoints      uint64 // fuzzy checkpoints completed, explicit or automatic
}

// Stats aggregates the counters reported by the paper's experiments across
// all layers of the system. It embeds each layer's counter set, so a
// counter declared in a layer is a field of Stats, a key of its JSON and
// part of the window with no further edit.
//
// Every counter covers the window since the last ResetStats call, or since
// Open or Reopen before the first one (benchmarks reset after the load
// phase), and so does Elapsed. The exceptions are the fields tagged
// `stat:"gauge"`, `stat:"max"` or `stat:"lifetime"`, and the configuration
// echoes and per-chip figures below. String and /metrics render every
// field by its tags; a `metric` tag names one whose Go name does not fit.
type Stats struct {
	// Configuration echo.
	Mode      WriteMode `stat:"-"`
	Scheme    Scheme    `stat:"-"`
	FlashMode FlashMode `stat:"-"`

	FTLStats
	DeviceStats
	StorageStats
	BufferStats
	TxnStats
	GroupCommitStats
	VersionStats

	// EvictionHistogramBounds holds the inclusive upper bound of each
	// bucket of EvictionSizeHistogram; its last bucket counts larger
	// evictions.
	EvictionHistogramBounds []int `stat:"-"`
	SecondaryIndexes        int   `stat:"gauge"` // secondary indexes in the catalog (echo)

	// Gauges of retained MVCC state: index entries kept for old snapshots,
	// open snapshots, and how many commits the oldest of them lags behind
	// the watermark (0 = no reader pinning history).
	ZombieEntries     int    `stat:"gauge"`
	ActiveSnapshots   int    `stat:"gauge"`
	OldestSnapshotAge uint64 `stat:"gauge"`

	// Checkpointing and recovery. CheckpointLSN is the LSN of the last
	// fuzzy checkpoint (0 = never checkpointed), WALSegments counts the
	// live log segments after recycling, and WALBytesSinceCheckpoint is
	// the log volume accumulated since that checkpoint — the redo bound
	// for the next crash. RecoveryRedoRecords is how many log records the
	// last Reopen actually replayed (0 on a fresh Open).
	CheckpointLSN           uint64 `stat:"gauge"`
	WALSegments             int    `stat:"gauge"`
	WALBytesSinceCheckpoint uint64 `stat:"gauge"`
	RecoveryRedoRecords     uint64 `stat:"lifetime"`

	// BufferShards is the number of independently-latched partitions of
	// the buffer pool's page table (a configuration echo, like Mode and
	// Scheme).
	BufferShards int `stat:"gauge"`

	// Wear (longevity).
	TotalErasesEver uint64 `stat:"lifetime" metric:"ipa_flash_erases_lifetime_total"` // erases since device creation
	MaxEraseCount   int    `stat:"gauge"`
	EnduranceCycles int    `stat:"gauge"`

	// Elapsed is the virtual time covered by this window.
	Elapsed time.Duration `stat:"gauge"`

	// Chips is the number of NAND chips; ChipStats breaks the Flash and
	// GC activity down per chip. The raw flash counters and the per-chip
	// Busy clocks cover the device lifetime, like TotalErasesEver, so their
	// spread shows how evenly the whole run striped load across the chips;
	// the per-chip GC counters cover the window like the global GC
	// statistics.
	Chips     int        `stat:"gauge"`
	ChipStats []ChipStat `label:"chip"`
}

// ChipStat is the per-chip slice of the device and FTL activity: raw Flash
// operations and Busy since device creation, GC work within the Stats
// window. On a well-striped workload the chips carry similar loads.
type ChipStat struct {
	Chip          int    `stat:"-"`
	PageReads     uint64 `stat:"lifetime"`
	PagePrograms  uint64 `stat:"lifetime"` // full page programs (includes partial/delta programs' chip ops)
	DeltaPrograms uint64 `stat:"lifetime"` // partial (in-place append) programs
	BlockErases   uint64 `stat:"lifetime" metric:"ipa_chip_erases_total"`
	ftl.GCStats
	FreeBlocks int           `stat:"gauge"`
	Busy       time.Duration `stat:"gauge"` // per-chip virtual clock
}

// reading is one look at every layer's counters. The layers only count up,
// so a window is the difference of two readings, and window alone takes
// it: the database's mark is the reading the Stats window starts from, and
// the ops readings are the ones its trailing windows lie between.
type reading struct {
	wall     time.Time
	virtual  time.Duration
	traceLen int
	chips    []ftl.ChipStats
	counts   Stats // the embedded counter sets only
}

// read takes a reading of every layer's counters.
func (db *DB) read() *reading {
	return &reading{
		wall:     time.Now(),
		virtual:  db.dev.Now(),
		traceLen: db.store.TraceLen(),
		chips:    db.ftl.ChipStats(),
		counts: Stats{
			FTLStats:         db.ftl.Stats(),
			DeviceStats:      db.dev.Stats(),
			StorageStats:     db.store.Stats(),
			BufferStats:      db.pool.Stats(),
			TxnStats:         stat.Load(&db.counts),
			GroupCommitStats: db.log.GroupCommitStats(),
			VersionStats:     db.txns.Versions().Stats(),
		},
	}
}

// window returns the counters' growth from one reading to a later one:
// the windowed fields of Stats, and only those, with the gauges and maxima
// of the later one. Every reading is taken after the one it is subtracted
// from, so no difference goes negative.
func window(from, to *reading) Stats {
	s := stat.Sub(to.counts, from.counts)
	s.Elapsed = to.virtual - from.virtual
	s.ChipStats = make([]ChipStat, len(to.chips))
	for i, c := range to.chips {
		s.ChipStats[i] = ChipStat{Chip: i, GCStats: stat.Sub(c.GCStats, from.chips[i].GCStats)}
	}
	return s
}

// Stats returns the counters' window since the last ResetStats (or since
// Open or Reopen), with the gauges, configuration echoes and lifetime
// figures as of now.
func (db *DB) Stats() Stats {
	// The marks are loaded before any counter is read, so neither the
	// window nor the bytes-since-checkpoint gauge can go negative.
	mark, walAtCkpt := db.mark.Load(), db.walBytesAtCkpt.Load()
	now := db.read()
	s := window(mark, now)

	s.Mode, s.Scheme, s.FlashMode = db.cfg.WriteMode, db.cfg.Scheme, db.cfg.FlashMode
	s.EvictionHistogramBounds = storage.HistogramBucketBounds()
	s.SecondaryIndexes = db.secondaryCount()
	s.ZombieEntries = db.txns.Versions().Retained()
	ora := db.txns.Oracle()
	s.ActiveSnapshots, s.OldestSnapshotAge = ora.ActiveSnapshots(), ora.SnapshotAge()
	s.CheckpointLSN = db.checkpointLSN.Load()
	s.WALSegments = db.log.Segments()
	s.WALBytesSinceCheckpoint = now.counts.WALBytes - walAtCkpt
	s.RecoveryRedoRecords = db.recoveryStats.RecordsRedone
	s.BufferShards = db.pool.Shards()

	perChip, clocks := db.dev.PerChipStats(), db.dev.ChipClocks()
	s.Chips = len(s.ChipStats)
	for i := range s.ChipStats {
		c := &s.ChipStats[i]
		c.PageReads, c.PagePrograms = perChip[i].PageReads, perChip[i].PagePrograms
		c.DeltaPrograms, c.BlockErases = perChip[i].PartialPrograms, perChip[i].BlockErases
		c.FreeBlocks, c.Busy = now.chips[i].FreeBlocks, clocks[i]
	}
	s.TotalErasesEver = db.dev.TotalErases()
	s.MaxEraseCount = db.dev.MaxEraseCount()
	s.EnduranceCycles = db.dev.EnduranceCycles()
	return s
}

// TotalHostWrites returns full-page writes plus write_delta commands, the
// quantity the paper's "Host Writes" row reports.
func (s Stats) TotalHostWrites() uint64 { return s.HostWrites + s.HostWriteDeltas }

// MigrationsPerHostWrite returns GC page migrations per host write.
func (s Stats) MigrationsPerHostWrite() float64 {
	return ratio(s.GCMigrations, s.TotalHostWrites())
}

// ErasesPerHostWrite returns GC erases per host write.
func (s Stats) ErasesPerHostWrite() float64 {
	return ratio(s.GCErases, s.TotalHostWrites())
}

// InPlaceShare returns the fraction of host writes served as in-place
// appends.
func (s Stats) InPlaceShare() float64 {
	return ratio(s.InPlaceAppends, s.InPlaceAppends+s.OutOfPlaceWrites)
}

// IndexDeltasPerMerge returns how many delta appends one full index-page
// rewrite (merge) amortises: delta records written per out-of-place index
// write.
func (s Stats) IndexDeltasPerMerge() float64 {
	return ratio(s.IndexDeltaRecords, s.IndexOutOfPlaceWrites)
}

// CommitsPerFlush returns the average number of commit requests served by
// one physical WAL flush — the group-commit batch size. Values above 1
// mean concurrent commits shared log-device writes.
func (s Stats) CommitsPerFlush() float64 {
	return ratio(s.WALFlushedCommits, s.WALFlushes)
}

// Throughput returns committed transactions per second of virtual time.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.CommittedTxns) / s.Elapsed.Seconds()
}

// DBMSWriteAmplification returns the ratio of bytes written by the DBMS to
// bytes actually modified (Figure 1), as seen at the host interface.
func (s Stats) DBMSWriteAmplification() float64 {
	if s.NetChangedBytes == 0 {
		return 0
	}
	return float64(s.HostBytesWritten) / float64(s.NetChangedBytes)
}

// SmallEvictionShare returns the fraction of dirty evictions with fewer
// than 100 net modified bytes (Figure 1).
func (s Stats) SmallEvictionShare() float64 {
	return ratio(s.SmallEvictions, s.DirtyEvictions)
}

// ChipBalance returns the ratio of the least to the most busy chip clock
// (1.0 = perfectly even striping, 0 = one chip idle). It returns 1 for
// single-chip devices.
func (s Stats) ChipBalance() float64 {
	if len(s.ChipStats) <= 1 {
		return 1
	}
	min, max := s.ChipStats[0].Busy, s.ChipStats[0].Busy
	for _, c := range s.ChipStats[1:] {
		if c.Busy < min {
			min = c.Busy
		}
		if c.Busy > max {
			max = c.Busy
		}
	}
	if max <= 0 {
		return 1
	}
	return float64(min) / float64(max)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// String renders the statistics as a small report: the configuration
// echo, then every counter of each set on one line (the chips' one line
// each, an array's elements comma-separated), then the derived ratios.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s scheme=%s flash=%s", s.Mode, s.Scheme, s.FlashMode)
	line := ""
	stat.Each(s, func(f stat.Field) {
		at := cmp.Or(f.Set, "Stats")
		if f.Label != "" {
			at = fmt.Sprintf("%s %d", f.Label, f.Elem)
		}
		if at != line {
			line = at
			fmt.Fprintf(&b, "\n%s:", at)
		}
		if f.Elem > 0 && f.Label == "" {
			fmt.Fprintf(&b, ",%v", f.Value())
		} else {
			fmt.Fprintf(&b, " %s=%v", f.Name, f.Value())
		}
	})
	fmt.Fprintf(&b, "\nderived: tps=%.1f migrations/write=%.4f erases/write=%.4f commits/flush=%.2f chip-balance=%.2f\n",
		s.Throughput(), s.MigrationsPerHostWrite(), s.ErasesPerHostWrite(), s.CommitsPerFlush(), s.ChipBalance())
	return b.String()
}
