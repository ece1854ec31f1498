package ipa

import (
	"fmt"
	"strings"
	"time"

	"ipa/internal/storage"
)

// Stats aggregates the counters reported by the paper's experiments across
// all layers of the system: host I/O seen by the Flash translation layer,
// garbage-collection work, raw Flash operations, storage-manager eviction
// behaviour, buffer-pool efficiency and transactional throughput.
//
// All counters cover the window since the last ResetStats call (benchmarks
// reset after the load phase).
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
	// and the largest batch one flush absorbed. WALFlushedCommits /
	// WALFlushes is the average group-commit batch size.
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

	// BufferShards is the number of independently-latched buffer pool
	// partitions (a configuration echo, like Mode and Scheme).
	BufferShards int

	// Chips is the number of NAND chips; ChipStats breaks the Flash and
	// GC activity down per chip. The raw flash counters and the per-chip
	// Busy clocks accumulate over the device lifetime (like
	// TotalErasesEver, they are not affected by ResetStats), so their
	// spread shows how evenly the whole run striped load across the
	// chips; the per-chip GC counters follow ResetStats windows like the
	// global GC statistics.
	Chips     int
	ChipStats []ChipStat

	// Wear (longevity).
	TotalErasesEver uint64 // erases since device creation (not reset)
	MaxEraseCount   int
	EnduranceCycles int

	// Elapsed is the virtual time covered by this window.
	Elapsed time.Duration
}

// ChipStat is the per-chip slice of the device and FTL activity: raw Flash
// operations and Busy since device creation, GC work since the last
// ResetStats. On a well-striped workload the chips carry similar loads.
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

// Stats returns a snapshot of all counters since the last ResetStats call.
func (db *DB) Stats() Stats {
	fs := db.ftl.Stats()
	ds := db.dev.Stats()
	cs := db.dev.ChipStats()
	ss := db.store.Stats()
	ps := db.pool.Stats()
	gc := db.log.GroupCommitStats()

	committed := db.committed.Load()
	aborted := db.aborted.Load()
	base := time.Duration(db.timeBase.Load())
	vs := db.txns.Versions().Stats()
	ora := db.txns.Oracle()
	lockAcq, lockConf := db.txns.LockStats()

	perChip := db.dev.PerChipStats()
	clocks := db.dev.ChipClocks()
	ftlChips := db.ftl.ChipStats()
	chipStats := make([]ChipStat, len(perChip))
	for i := range perChip {
		chipStats[i] = ChipStat{
			Chip:          i,
			PageReads:     perChip[i].PageReads,
			PagePrograms:  perChip[i].PagePrograms,
			DeltaPrograms: perChip[i].PartialPrograms,
			BlockErases:   perChip[i].BlockErases,
			GCRuns:        ftlChips[i].GCRuns,
			GCMigrations:  ftlChips[i].GCMigrations,
			GCErases:      ftlChips[i].GCErases,
			FreeBlocks:    ftlChips[i].FreeBlocks,
			Busy:          clocks[i],
		}
	}

	return Stats{
		Mode:      db.cfg.WriteMode,
		Scheme:    db.cfg.Scheme,
		FlashMode: db.cfg.FlashMode,

		HostReads:        fs.HostReads,
		HostWrites:       fs.HostWrites,
		HostWriteDeltas:  fs.HostWriteDeltas,
		HostBytesRead:    fs.HostBytesRead,
		HostBytesWritten: fs.HostBytesWritten,

		InPlaceAppends:   fs.InPlaceAppends,
		OutOfPlaceWrites: fs.OutOfPlaceWrites,
		Invalidations:    fs.Invalidations,

		GCMigrations: fs.GCMigrations,
		GCErases:     fs.GCErases,
		GCRuns:       fs.GCRuns,

		FlashPageReads:     ds.PageReads,
		FlashPagePrograms:  ds.PagePrograms,
		FlashDeltaPrograms: ds.DeltaPrograms,
		FlashBlockErases:   ds.BlockErases,
		CorrectedBits:      ds.CorrectedBits,
		UncorrectableReads: ds.Uncorrectable,
		InterferenceBits:   cs.InterferenceBits,

		DirtyEvictions:          ss.DirtyEvictions,
		IPAAppendEvictions:      ss.IPAAppends,
		OutOfPlaceEvictions:     ss.OutOfPlaceWrites,
		AppendFallbacks:         ss.AppendFallbacks,
		DeltaRecordsWritten:     ss.DeltaRecordsWritten,
		DeltaBytesWritten:       ss.DeltaBytesWritten,
		NetChangedBytes:         ss.NetChangedBytes,
		EvictedBytes:            ss.EvictedBytes,
		SmallEvictions:          ss.SmallEvictions,
		EvictionSizeHistogram:   ss.EvictionSizeHistogram[:],
		EvictionHistogramBounds: storage.HistogramBucketBounds(),

		IndexPageReads:        ss.IndexPageLoads,
		IndexPageWrites:       ss.IndexDirtyEvictions,
		IndexInPlaceAppends:   ss.IndexIPAAppends,
		IndexOutOfPlaceWrites: ss.IndexOutOfPlaceWrites,
		IndexDeltaRecords:     ss.IndexDeltaRecords,
		IndexDeltaBytes:       ss.IndexDeltaBytes,
		SecondaryIndexes:      db.secondaryCount(),

		BufferHits:   ps.Hits,
		BufferMisses: ps.Misses,

		CommittedTxns:     committed,
		AbortedTxns:       aborted,
		WALBytes:          db.log.BytesWritten(),
		LockAcquisitions:  lockAcq,
		LockConflicts:     lockConf,
		SnapshotReads:     vs.SnapshotReads,
		VersionReads:      vs.VersionReads,
		VersionsCreated:   vs.VersionsCreated,
		VersionsReclaimed: vs.VersionsReclaimed,
		VersionChainsLive: vs.ChainsLive,
		ZombieEntries:     db.zombieCount(),
		ZombiesReclaimed:  db.zombiesReclaimed.Load(),
		ActiveSnapshots:   ora.ActiveSnapshots(),
		OldestSnapshotAge: ora.SnapshotAge(),
		WALFlushes:        gc.Flushes,
		WALFlushedCommits: gc.FlushedCommits,
		WALMaxCommitBatch: gc.MaxBatch,

		CheckpointLSN:           db.checkpointLSN.Load(),
		WALSegments:             db.log.Segments(),
		WALBytesSinceCheckpoint: sub(db.log.BytesWritten(), db.walBytesAtCkpt.Load()),
		RecoveryRedoRecords:     db.recoveryStats.RecordsRedone,
		RecoveryParallelism:     db.cfg.RecoveryParallelism,

		BufferShards: db.pool.Shards(),

		Chips:     len(chipStats),
		ChipStats: chipStats,

		TotalErasesEver: db.dev.TotalErases(),
		MaxEraseCount:   db.dev.MaxEraseCount(),
		EnduranceCycles: db.dev.EnduranceCycles(),

		Elapsed: db.dev.Now() - base,
	}
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
