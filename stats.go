package ipa

import (
	"fmt"
	"strings"
	"time"

	"ipa/internal/buffer"
	"ipa/internal/flashdev"
	"ipa/internal/ftl"
	"ipa/internal/nand"
	"ipa/internal/storage"
	"ipa/internal/txn"
	"ipa/internal/wal"
)

// Stats aggregates the counters reported by the paper's experiments across
// all layers of the system: host I/O seen by the Flash translation layer,
// garbage-collection work, raw Flash operations, storage-manager eviction
// behaviour, buffer-pool efficiency and transactional throughput.
//
// Every counter covers the window since the last ResetStats call, or since
// Open or Reopen before the first one (benchmarks reset after the load
// phase), and so does Elapsed. The exceptions say so: configuration echoes,
// gauges (VersionChainsLive, ZombieEntries, ActiveSnapshots,
// OldestSnapshotAge, CheckpointLSN, WALSegments, WALBytesSinceCheckpoint,
// the per-chip FreeBlocks, MaxEraseCount), RecoveryRedoRecords, and the
// lifetime figures WALMaxCommitBatch, TotalErasesEver and the per-chip
// Flash counters and Busy clocks.
type Stats struct {
	// Configuration echo.
	Mode      WriteMode
	Scheme    Scheme
	FlashMode FlashMode

	// Host I/O (FTL level) — the "Host Reads/Writes" rows of Table 1.
	HostReads        uint64
	HostWrites       uint64 // full page writes
	HostWriteDeltas  uint64 // write_delta commands
	HostBytesRead    uint64
	HostBytesWritten uint64

	// Write-path outcome — the "Out-of-Place Writes vs In-Place Appends"
	// row of Table 1.
	InPlaceAppends   uint64
	OutOfPlaceWrites uint64
	Invalidations    uint64

	// Garbage collection — the "GC Page Migrations" / "GC Erases" rows.
	GCMigrations uint64
	GCErases     uint64
	GCRuns       uint64

	// Raw Flash operations.
	FlashPageReads     uint64
	FlashPagePrograms  uint64
	FlashDeltaPrograms uint64
	FlashBlockErases   uint64
	CorrectedBits      uint64
	UncorrectableReads uint64
	InterferenceBits   uint64

	// Storage-manager eviction behaviour (Figure 1).
	DirtyEvictions      uint64
	IPAAppendEvictions  uint64
	OutOfPlaceEvictions uint64
	AppendFallbacks     uint64
	DeltaRecordsWritten uint64
	DeltaBytesWritten   uint64
	NetChangedBytes     uint64
	EvictedBytes        uint64
	SmallEvictions      uint64
	// EvictionSizeHistogram buckets dirty evictions by net modified bytes;
	// EvictionHistogramBounds holds the inclusive upper bound of each
	// bucket (the last histogram entry counts larger evictions).
	EvictionSizeHistogram   []uint64
	EvictionHistogramBounds []int

	// Index maintenance (the index-page slice of the eviction counters
	// above, covering primary-key and secondary entry pages — both live in
	// KindIndex regions). Index entry pages absorb tiny slot edits, so
	// under IPA most index evictions become delta appends instead of full
	// page writes; IndexDeltaRecords / IndexOutOfPlaceWrites is the number
	// of delta appends amortised per full index-page rewrite (merge).
	IndexPageReads        uint64 // index entry pages loaded from Flash
	IndexPageWrites       uint64 // dirty index-page evictions
	IndexInPlaceAppends   uint64 // index evictions persisted as delta appends
	IndexOutOfPlaceWrites uint64 // index evictions written as whole pages
	IndexDeltaRecords     uint64 // delta records written for index pages
	IndexDeltaBytes       uint64 // delta bytes written for index pages
	SecondaryIndexes      int    // secondary indexes in the catalog (echo)

	// Buffer pool.
	BufferHits   uint64
	BufferMisses uint64

	// Transactions and logging.
	CommittedTxns uint64
	AbortedTxns   uint64
	WALBytes      uint64

	// Concurrency control. Readers run lock-free against MVCC snapshots;
	// only writers take record locks, so LockAcquisitions counts writer
	// lock grants and LockConflicts counts no-wait denials (ErrConflict).
	LockAcquisitions uint64
	LockConflicts    uint64

	// MVCC version chains. SnapshotReads counts version-cache resolutions;
	// VersionReads is how many of them were served from a superseded
	// version rather than the heap slot (reads that 2PL would have blocked
	// or answered dirtily). VersionsCreated / VersionsReclaimed track the
	// version-chain churn, VersionChainsLive and ZombieEntries are gauges
	// of retained MVCC state, and OldestSnapshotAge is how many commits the
	// oldest active snapshot lags behind the watermark (0 = no reader
	// pinning history).
	SnapshotReads     uint64
	VersionReads      uint64
	VersionsCreated   uint64
	VersionsReclaimed uint64
	VersionChainsLive uint64
	ZombieEntries     int
	ZombiesReclaimed  uint64
	ActiveSnapshots   int
	OldestSnapshotAge uint64
	// Group commit: physical log flushes, the commit requests they served
	// and the largest batch one flush absorbed since Open (a maximum has no
	// window). WALFlushedCommits / WALFlushes is the average group-commit
	// batch size.
	WALFlushes        uint64
	WALFlushedCommits uint64
	WALMaxCommitBatch uint64

	// Checkpointing and recovery. CheckpointLSN is the LSN of the last
	// fuzzy checkpoint (0 = never checkpointed), WALSegments counts the
	// live log segments after recycling, and WALBytesSinceCheckpoint is
	// the log volume accumulated since that checkpoint — the redo bound
	// for the next crash. RecoveryRedoRecords is how many log records the
	// last Reopen actually replayed (0 on a fresh Open) and
	// RecoveryParallelism is the configured redo worker count (1 = the
	// serial oracle).
	CheckpointLSN           uint64
	WALSegments             int
	WALBytesSinceCheckpoint uint64
	RecoveryRedoRecords     uint64
	RecoveryParallelism     int

	// BufferShards is the number of independently-latched partitions of
	// the buffer pool's page table (a configuration echo, like Mode and
	// Scheme).
	BufferShards int

	// Chips is the number of NAND chips; ChipStats breaks the Flash and
	// GC activity down per chip. The raw flash counters and the per-chip
	// Busy clocks cover the device lifetime, like TotalErasesEver, so their
	// spread shows how evenly the whole run striped load across the chips;
	// the per-chip GC counters cover the window like the global GC
	// statistics.
	Chips     int
	ChipStats []ChipStat

	// Wear (longevity).
	TotalErasesEver uint64 // erases since device creation
	MaxEraseCount   int
	EnduranceCycles int

	// Elapsed is the virtual time covered by this window.
	Elapsed time.Duration
}

// ChipStat is the per-chip slice of the device and FTL activity: raw Flash
// operations and Busy since device creation, GC work within the Stats
// window. On a well-striped workload the chips carry similar loads.
type ChipStat struct {
	Chip          int
	PageReads     uint64
	PagePrograms  uint64 // full page programs (includes partial/delta programs' chip ops)
	DeltaPrograms uint64 // partial (in-place append) programs
	BlockErases   uint64
	GCRuns        uint64
	GCMigrations  uint64
	GCErases      uint64
	FreeBlocks    int
	Busy          time.Duration // per-chip virtual clock
}

// reading is one look at every layer's counters. The layers only count up,
// so a window is the difference of two readings, and window alone takes
// it: the database's mark is the reading the Stats window starts from, and
// the ops ring holds the readings its trailing windows lie between.
type reading struct {
	wall     time.Time
	virtual  time.Duration
	ftl      ftl.Stats
	ftlChips []ftl.ChipStats
	dev      flashdev.Stats
	chips    nand.Stats // summed over the chips
	store    storage.Stats
	traceLen int
	pool     buffer.Stats
	walBytes uint64
	group    wal.GroupCommitStats
	versions txn.VersionStats

	lockAcquisitions, lockConflicts      uint64
	committed, aborted, zombiesReclaimed uint64
}

// read takes a reading of every layer's counters.
func (db *DB) read() *reading {
	acq, conf := db.txns.LockStats()
	return &reading{
		wall:             time.Now(),
		virtual:          db.dev.Now(),
		ftl:              db.ftl.Stats(),
		ftlChips:         db.ftl.ChipStats(),
		dev:              db.dev.Stats(),
		chips:            db.dev.ChipStats(),
		store:            db.store.Stats(),
		traceLen:         db.store.TraceLen(),
		pool:             db.pool.Stats(),
		walBytes:         db.log.BytesWritten(),
		group:            db.log.GroupCommitStats(),
		versions:         db.txns.Versions().Stats(),
		lockAcquisitions: acq,
		lockConflicts:    conf,
		committed:        db.committed.Load(),
		aborted:          db.aborted.Load(),
		zombiesReclaimed: db.zombiesReclaimed.Load(),
	}
}

// window returns the counters' growth from one reading to a later one:
// the windowed fields of Stats, and only those. Every reading is taken
// after the one it is subtracted from, so no difference goes negative.
func window(from, to *reading) Stats {
	chips := make([]ChipStat, len(to.ftlChips))
	for i, c := range to.ftlChips {
		f := from.ftlChips[i]
		chips[i] = ChipStat{Chip: i, GCRuns: c.GCRuns - f.GCRuns,
			GCMigrations: c.GCMigrations - f.GCMigrations, GCErases: c.GCErases - f.GCErases}
	}
	hist := make([]uint64, len(to.store.EvictionSizeHistogram))
	for i := range hist {
		hist[i] = to.store.EvictionSizeHistogram[i] - from.store.EvictionSizeHistogram[i]
	}
	return Stats{
		HostReads:        to.ftl.HostReads - from.ftl.HostReads,
		HostWrites:       to.ftl.HostWrites - from.ftl.HostWrites,
		HostWriteDeltas:  to.ftl.HostWriteDeltas - from.ftl.HostWriteDeltas,
		HostBytesRead:    to.ftl.HostBytesRead - from.ftl.HostBytesRead,
		HostBytesWritten: to.ftl.HostBytesWritten - from.ftl.HostBytesWritten,

		InPlaceAppends:   to.ftl.InPlaceAppends - from.ftl.InPlaceAppends,
		OutOfPlaceWrites: to.ftl.OutOfPlaceWrites - from.ftl.OutOfPlaceWrites,
		Invalidations:    to.ftl.Invalidations - from.ftl.Invalidations,

		GCMigrations: to.ftl.GCMigrations - from.ftl.GCMigrations,
		GCErases:     to.ftl.GCErases - from.ftl.GCErases,
		GCRuns:       to.ftl.GCRuns - from.ftl.GCRuns,

		FlashPageReads:     to.dev.PageReads - from.dev.PageReads,
		FlashPagePrograms:  to.dev.PagePrograms - from.dev.PagePrograms,
		FlashDeltaPrograms: to.dev.DeltaPrograms - from.dev.DeltaPrograms,
		FlashBlockErases:   to.dev.BlockErases - from.dev.BlockErases,
		CorrectedBits:      to.dev.CorrectedBits - from.dev.CorrectedBits,
		UncorrectableReads: to.dev.Uncorrectable - from.dev.Uncorrectable,
		InterferenceBits:   to.chips.InterferenceBits - from.chips.InterferenceBits,

		DirtyEvictions:        to.store.DirtyEvictions - from.store.DirtyEvictions,
		IPAAppendEvictions:    to.store.IPAAppends - from.store.IPAAppends,
		OutOfPlaceEvictions:   to.store.OutOfPlaceWrites - from.store.OutOfPlaceWrites,
		AppendFallbacks:       to.store.AppendFallbacks - from.store.AppendFallbacks,
		DeltaRecordsWritten:   to.store.DeltaRecordsWritten - from.store.DeltaRecordsWritten,
		DeltaBytesWritten:     to.store.DeltaBytesWritten - from.store.DeltaBytesWritten,
		NetChangedBytes:       to.store.NetChangedBytes - from.store.NetChangedBytes,
		EvictedBytes:          to.store.EvictedBytes - from.store.EvictedBytes,
		SmallEvictions:        to.store.SmallEvictions - from.store.SmallEvictions,
		EvictionSizeHistogram: hist,

		IndexPageReads:        to.store.IndexPageLoads - from.store.IndexPageLoads,
		IndexPageWrites:       to.store.IndexDirtyEvictions - from.store.IndexDirtyEvictions,
		IndexInPlaceAppends:   to.store.IndexIPAAppends - from.store.IndexIPAAppends,
		IndexOutOfPlaceWrites: to.store.IndexOutOfPlaceWrites - from.store.IndexOutOfPlaceWrites,
		IndexDeltaRecords:     to.store.IndexDeltaRecords - from.store.IndexDeltaRecords,
		IndexDeltaBytes:       to.store.IndexDeltaBytes - from.store.IndexDeltaBytes,

		BufferHits:   to.pool.Hits - from.pool.Hits,
		BufferMisses: to.pool.Misses - from.pool.Misses,

		CommittedTxns:     to.committed - from.committed,
		AbortedTxns:       to.aborted - from.aborted,
		WALBytes:          to.walBytes - from.walBytes,
		LockAcquisitions:  to.lockAcquisitions - from.lockAcquisitions,
		LockConflicts:     to.lockConflicts - from.lockConflicts,
		SnapshotReads:     to.versions.SnapshotReads - from.versions.SnapshotReads,
		VersionReads:      to.versions.VersionReads - from.versions.VersionReads,
		VersionsCreated:   to.versions.VersionsCreated - from.versions.VersionsCreated,
		VersionsReclaimed: to.versions.VersionsReclaimed - from.versions.VersionsReclaimed,
		ZombiesReclaimed:  to.zombiesReclaimed - from.zombiesReclaimed,
		WALFlushes:        to.group.Flushes - from.group.Flushes,
		WALFlushedCommits: to.group.FlushedCommits - from.group.FlushedCommits,

		ChipStats: chips,
		Elapsed:   to.virtual - from.virtual,
	}
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
	s.VersionChainsLive = now.versions.ChainsLive
	s.ZombieEntries = db.zombieCount()
	ora := db.txns.Oracle()
	s.ActiveSnapshots, s.OldestSnapshotAge = ora.ActiveSnapshots(), ora.SnapshotAge()
	s.WALMaxCommitBatch = now.group.MaxBatch
	s.CheckpointLSN = db.checkpointLSN.Load()
	s.WALSegments = db.log.Segments()
	s.WALBytesSinceCheckpoint = now.walBytes - walAtCkpt
	s.RecoveryRedoRecords = db.recoveryStats.RecordsRedone
	s.RecoveryParallelism = db.cfg.RecoveryParallelism
	s.BufferShards = db.pool.Shards()

	perChip, clocks := db.dev.PerChipStats(), db.dev.ChipClocks()
	s.Chips = len(s.ChipStats)
	for i := range s.ChipStats {
		c := &s.ChipStats[i]
		c.PageReads, c.PagePrograms = perChip[i].PageReads, perChip[i].PagePrograms
		c.DeltaPrograms, c.BlockErases = perChip[i].PartialPrograms, perChip[i].BlockErases
		c.FreeBlocks, c.Busy = now.ftlChips[i].FreeBlocks, clocks[i]
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

// IndexInPlaceShare returns the fraction of dirty index-page evictions
// persisted as in-place delta appends.
func (s Stats) IndexInPlaceShare() float64 {
	return ratio(s.IndexInPlaceAppends, s.IndexPageWrites)
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

// VersionChasedPerRead returns the fraction of snapshot reads that had to
// chase the version chain past the heap slot (served from a superseded
// version). 0 means every read saw the newest committed version.
func (s Stats) VersionChasedPerRead() float64 {
	return ratio(s.VersionReads, s.SnapshotReads)
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

// String renders the statistics as a small report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s scheme=%s flash=%s\n", s.Mode, s.Scheme, s.FlashMode)
	fmt.Fprintf(&b, "host: reads=%d writes=%d write_deltas=%d bytesWritten=%d\n",
		s.HostReads, s.HostWrites, s.HostWriteDeltas, s.HostBytesWritten)
	fmt.Fprintf(&b, "writes: in-place=%d out-of-place=%d invalidations=%d\n",
		s.InPlaceAppends, s.OutOfPlaceWrites, s.Invalidations)
	fmt.Fprintf(&b, "gc: migrations=%d erases=%d (%.4f migr/write, %.4f erases/write)\n",
		s.GCMigrations, s.GCErases, s.MigrationsPerHostWrite(), s.ErasesPerHostWrite())
	fmt.Fprintf(&b, "flash: reads=%d programs=%d deltaPrograms=%d erases=%d\n",
		s.FlashPageReads, s.FlashPagePrograms, s.FlashDeltaPrograms, s.FlashBlockErases)
	fmt.Fprintf(&b, "index: reads=%d writes=%d in-place=%d out-of-place=%d deltaRecords=%d secondaries=%d\n",
		s.IndexPageReads, s.IndexPageWrites, s.IndexInPlaceAppends, s.IndexOutOfPlaceWrites, s.IndexDeltaRecords, s.SecondaryIndexes)
	fmt.Fprintf(&b, "txn: committed=%d aborted=%d throughput=%.1f tps elapsed=%s\n",
		s.CommittedTxns, s.AbortedTxns, s.Throughput(), s.Elapsed)
	fmt.Fprintf(&b, "locks: acquired=%d conflicts=%d\n", s.LockAcquisitions, s.LockConflicts)
	fmt.Fprintf(&b, "mvcc: snapshotReads=%d versionReads=%d (%.4f chased/read) created=%d reclaimed=%d chains=%d zombies=%d reclaimedZombies=%d activeSnapshots=%d oldestSnapshotAge=%d\n",
		s.SnapshotReads, s.VersionReads, s.VersionChasedPerRead(), s.VersionsCreated, s.VersionsReclaimed,
		s.VersionChainsLive, s.ZombieEntries, s.ZombiesReclaimed, s.ActiveSnapshots, s.OldestSnapshotAge)
	fmt.Fprintf(&b, "buffer: hits=%d misses=%d shards=%d\n", s.BufferHits, s.BufferMisses, s.BufferShards)
	fmt.Fprintf(&b, "wal: flushes=%d commits/flush=%.2f maxBatch=%d\n",
		s.WALFlushes, s.CommitsPerFlush(), s.WALMaxCommitBatch)
	fmt.Fprintf(&b, "checkpoint: lsn=%d segments=%d bytesSince=%d redoRecords=%d redoWorkers=%d\n",
		s.CheckpointLSN, s.WALSegments, s.WALBytesSinceCheckpoint, s.RecoveryRedoRecords, s.RecoveryParallelism)
	if s.Chips > 1 {
		fmt.Fprintf(&b, "chips: %d balance=%.2f\n", s.Chips, s.ChipBalance())
		for _, c := range s.ChipStats {
			fmt.Fprintf(&b, "  chip %d: reads=%d programs=%d deltas=%d erases=%d gcRuns=%d busy=%s\n",
				c.Chip, c.PageReads, c.PagePrograms, c.DeltaPrograms, c.BlockErases, c.GCRuns, c.Busy.Round(time.Millisecond))
		}
	}
	return b.String()
}
