// Package ipa is a storage engine with In-Place Appends (IPA) on simulated
// NAND Flash: a full reproduction of "In-Place Appends for Real: DBMS
// Overwrites on Flash without Erase" (Hardock et al., EDBT 2017).
//
// The engine bundles a behavioural NAND Flash simulator, a page-mapping
// FTL with garbage collection, an NSM slotted-page storage engine with a
// buffer pool, write-ahead logging and transactions, and the three write
// paths demonstrated in the paper:
//
//   - Traditional out-of-place page writes (the baseline),
//   - IPA for conventional SSDs over a block-device interface, and
//   - IPA for native Flash using the write_delta command.
//
// A minimal session looks like this:
//
//	db, _ := ipa.Open(ipa.Config{WriteMode: ipa.IPANativeFlash, Scheme: ipa.Scheme{N: 2, M: 4}})
//	defer db.Close()
//	accounts, _ := db.CreateTable("accounts", 64)
//	tx := db.Begin() // every write is a transaction
//	_ = tx.Insert(accounts, 1, make([]byte, 64))
//	_ = tx.UpdateAt(accounts, 1, 0, []byte{42})
//	_ = tx.Commit()
//	fmt.Println(db.Stats().InPlaceAppends)
package ipa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/flashdev"
	"ipa/internal/ftl"
	"ipa/internal/nand"
	"ipa/internal/page"
	"ipa/internal/region"
	"ipa/internal/storage"
	"ipa/internal/txn"
	"ipa/internal/wal"
)

// Scheme is the public N×M In-Place Appends configuration: at most N delta
// records per page, at most M changed bytes per record. The zero value
// disables IPA.
type Scheme struct {
	N int
	M int
}

// String renders the scheme in the paper's [N×M] notation.
func (s Scheme) String() string { return fmt.Sprintf("%dx%d", s.N, s.M) }

// Enabled reports whether the scheme enables in-place appends.
func (s Scheme) Enabled() bool { return s.N > 0 && s.M > 0 }

func (s Scheme) internal() core.Scheme { return core.Scheme{N: s.N, M: s.M} }

// WriteMode selects the write path used on dirty page evictions. The three
// modes correspond to the paper's demonstration scenarios.
type WriteMode int

const (
	// Traditional writes whole pages out-of-place (demo scenario 1).
	Traditional WriteMode = iota
	// IPAConventionalSSD writes whole pages (body + delta-record area)
	// over a block-device interface; the FTL appends in place when
	// possible (demo scenario 2).
	IPAConventionalSSD
	// IPANativeFlash transfers only delta records with the write_delta
	// command (demo scenario 3, the NoFTL architecture).
	IPANativeFlash
)

// String names the write mode.
func (m WriteMode) String() string {
	switch m {
	case Traditional:
		return "traditional"
	case IPAConventionalSSD:
		return "ipa-ssd"
	case IPANativeFlash:
		return "ipa-native"
	default:
		return fmt.Sprintf("WriteMode(%d)", int(m))
	}
}

func (m WriteMode) internal() storage.WriteMode {
	switch m {
	case IPAConventionalSSD:
		return storage.WriteIPASSD
	case IPANativeFlash:
		return storage.WriteIPANative
	default:
		return storage.WriteTraditional
	}
}

// FlashMode selects how MLC Flash is operated (Section 3 of the paper).
type FlashMode int

const (
	// MLCFull uses all MLC pages and allows appends everywhere (subject to
	// program interference); mainly for ablation.
	MLCFull FlashMode = iota
	// PSLC (pseudo-SLC) uses only LSB pages: half the capacity, SLC-grade
	// tolerance to program interference.
	PSLC
	// OddMLC uses the full capacity but appends only to LSB (odd) pages.
	OddMLC
	// SLCMode operates an SLC chip.
	SLCMode
)

// String names the flash mode as in the paper.
func (m FlashMode) String() string {
	switch m {
	case MLCFull:
		return "MLC"
	case PSLC:
		return "pSLC"
	case OddMLC:
		return "odd-MLC"
	case SLCMode:
		return "SLC"
	default:
		return fmt.Sprintf("FlashMode(%d)", int(m))
	}
}

func (m FlashMode) internal() nand.Mode {
	switch m {
	case PSLC:
		return nand.ModePSLC
	case OddMLC:
		return nand.ModeOddMLC
	case SLCMode:
		return nand.ModeSLC
	default:
		return nand.ModeMLCFull
	}
}

// Config configures a database instance.
type Config struct {
	// PageSize is the database and Flash page size in bytes (default 8 KiB).
	PageSize int
	// Blocks is the number of erase blocks per chip (default 256).
	Blocks int
	// PagesPerBlock is the number of pages per erase block (default 128).
	PagesPerBlock int
	// Chips is the number of NAND chips (default 1).
	Chips int
	// FlashMode selects how the Flash is operated (default MLCFull).
	// SLCMode builds the device from SLC cells, every other mode from MLC.
	FlashMode FlashMode
	// WriteMode selects the eviction write path (default Traditional).
	WriteMode WriteMode
	// Scheme is the default N×M scheme applied to tables (default
	// disabled). Individual tables can override it via
	// CreateTableWithScheme (NoFTL regions).
	Scheme Scheme
	// IndexScheme is the N×M scheme applied to index entry pages —
	// primary-key and secondary alike (each index owns a NoFTL region).
	// The zero value inherits each table's scheme — index maintenance is
	// small-update dominated, so index pages are usually the strongest
	// delta-append candidates.
	IndexScheme Scheme
	// BufferPoolPages is the buffer pool capacity in pages (default 256).
	BufferPoolPages int
	// OverprovisionPct is the FTL over-provisioning fraction (default 0.08).
	OverprovisionPct float64
	// InterferenceProb is the per-reprogram probability of a program
	// interference bit flip on MLC Flash (default 0).
	InterferenceProb float64
	// TxnCPUCost is the virtual CPU time charged per committed
	// transaction (default 50µs).
	TxnCPUCost time.Duration
	// LogFlushLatency is the virtual latency of one write to the separate
	// log device, charged once per WAL flush batch (default 0: the log
	// device is not modelled, as in the paper's experiments). With a
	// non-zero latency the group-commit pipeline becomes visible:
	// concurrent commits share one flush and therefore one latency charge.
	LogFlushLatency time.Duration
	// LogFlushWallLatency makes the flush leader really wait this long per
	// WAL flush batch, modelling the wall-clock cost of a log-device sync
	// (default 0). While the leader waits, concurrently-arriving commits
	// queue up and ride the next batch — the classic group-commit
	// amortisation.
	LogFlushWallLatency time.Duration
	// TraceEvictions records the fetch/eviction trace used for the IPL
	// comparison.
	TraceEvictions bool
	// Seed drives deterministic fault injection.
	Seed int64
	// Faults, if non-nil, attaches a deterministic power-cut schedule to
	// the device and the log-device flush path: the K-th program, erase or
	// log flush fails (optionally torn mid-operation) and every operation
	// after it reports ErrPowerLost until the plan is power-cycled. The
	// crash-torture harness uses it to prove the engine reopens consistent
	// from any crash point; see DB.Crash and Reopen.
	Faults *FaultPlan
	// CheckpointEveryBytes makes the commit that leaves this many WAL bytes
	// since the last fuzzy checkpoint take the next one, after it has
	// returned durable (default 0: no automatic checkpoint; call
	// DB.Checkpoint explicitly).
	CheckpointEveryBytes uint64
}

// withDefaults fills unset fields. The default geometry mirrors (at reduced
// scale) the Samsung K9LCG08U1M modules of the OpenSSD Jasmine board used in
// the paper: 8 KiB pages, 128 pages per erase unit.
func (c Config) withDefaults() Config {
	if c.PageSize <= 0 {
		c.PageSize = 8 * 1024
	}
	if c.Blocks <= 0 {
		c.Blocks = 256
	}
	if c.PagesPerBlock <= 0 {
		c.PagesPerBlock = 128
	}
	if c.Chips <= 0 {
		c.Chips = 1
	}
	if c.BufferPoolPages <= 0 {
		c.BufferPoolPages = 256
	}
	if c.TxnCPUCost <= 0 {
		c.TxnCPUCost = 50 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("ipa: database closed")

// ErrTableExists is returned when creating a table whose name is taken.
var ErrTableExists = errors.New("ipa: table already exists")

// DB is a database instance.
//
// The engine synchronises at page granularity: the buffer pool is sharded
// and every frame carries its own latch, the WAL batches concurrent
// commits, and the lock table is striped. DB.mu therefore guards only the
// catalog (the table maps and the closed flag); it is never held across
// page access or I/O, so concurrent readers and writers on different pages
// proceed in parallel.
type DB struct {
	mu  sync.Mutex // catalog only: table and index maps, nextObjID, closed
	cfg Config

	dev     *flashdev.Device
	ftl     *ftl.FTL
	store   *storage.Manager
	pool    *buffer.Pool
	regions *region.Manager
	log     *wal.Log
	txns    *txn.Manager

	tables          map[string]*Table
	tablesByID      map[uint32]*Table
	indexesByID     map[uint32]*Table          // pk index object id -> owning table
	secondaryByID   map[uint32]*SecondaryIndex // secondary index object id
	secondaryByName map[string]*SecondaryIndex // "<table>.<index>" -> index
	nextObjID       uint32
	// closed is atomic so the hot table and transaction paths can reject
	// use-after-Close without taking the catalog mutex; gate makes Close
	// wait for in-flight operations before flushing (see acquire).
	closed    atomic.Bool
	gate      sync.RWMutex
	closeOnce sync.Once
	closeErr  error

	// counts is the database's own live counter set, bumped atomically so
	// Stats and ResetStats are safe while transactions run. mark is the
	// reading the Stats window starts from (see stats.go).
	counts TxnStats
	mark   atomic.Pointer[reading]

	// Fuzzy-checkpoint state. ckptMu serialises checkpoints; catalogPID
	// holds the durable catalog page identifier plus one (0 = not yet
	// allocated); checkpointLSN is the LSN of the last checkpoint record;
	// walBytesAtCkpt is the log's BytesWritten at that moment, so the
	// bytes-since-checkpoint gauge and the commit's checkpoint trigger need
	// no extra counter. recoveryStats describes the Reopen that produced
	// this handle (written once, before the handle is shared).
	ckptMu         sync.Mutex
	catalogPID     atomic.Uint64
	checkpointLSN  atomic.Uint64
	ckptCut        atomic.Uint64
	walBytesAtCkpt atomic.Uint64
	recoveryStats  RecoveryStats

	// Ops readings: the two newest counter readings behind the windowed
	// rates and how many were taken (see ops.go).
	opsMu            sync.Mutex
	opsPrev, opsLast *reading
	opsSamples       int
}

// Open creates a database on a freshly formatted simulated Flash device.
func Open(cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()

	cell := nand.MLC
	if cfg.FlashMode == SLCMode {
		cell = nand.SLC
	}
	devCfg := flashdev.Config{
		Chips: cfg.Chips,
		Chip: nand.Config{
			Geometry: nand.Geometry{
				Blocks:        cfg.Blocks,
				PagesPerBlock: cfg.PagesPerBlock,
				PageSize:      cfg.PageSize,
				OOBSize:       128,
			},
			Cell:             cell,
			InterferenceProb: cfg.InterferenceProb,
			Seed:             cfg.Seed,
			StrictOverwrite:  true,
			Faults:           cfg.Faults,
		},
		Latency: flashdev.DefaultLatencyModel(),
	}
	dev, err := flashdev.New(devCfg)
	if err != nil {
		return nil, fmt.Errorf("ipa: %w", err)
	}

	if err := cfg.Scheme.internal().Validate(); err != nil {
		return nil, fmt.Errorf("ipa: %w", err)
	}
	if err := cfg.IndexScheme.internal().Validate(); err != nil {
		return nil, fmt.Errorf("ipa: index scheme: %w", err)
	}
	f, err := ftl.New(dev, cfg.ftlConfig())
	if err != nil {
		return nil, fmt.Errorf("ipa: %w", err)
	}
	log := wal.New()
	return assemble(cfg, dev, f, log, txn.NewManager(log))
}

// formatAreaSize returns the delta-record area reserved by the device's
// low-level format: the larger of the default table scheme and the index
// scheme. Index regions may run a roomier scheme than heap regions (entry
// inserts patch ~20 bytes, heap field updates often fewer), so the format
// must leave the open (delta) window wide enough for both.
func (c Config) formatAreaSize() int {
	area := 0
	if s := c.Scheme.internal(); s.Enabled() {
		area = s.AreaSize(pageMetaSize)
	}
	if s := c.IndexScheme.internal(); s.Enabled() && s.AreaSize(pageMetaSize) > area {
		area = s.AreaSize(pageMetaSize)
	}
	return area
}

// ftlConfig derives the Flash-management configuration, including the
// low-level ECC format: the initial ECC of every Flash page covers
// everything in front of the delta-record area plus the page footer behind
// it; appended delta records carry their own ECC slots (Figure 3). This is
// the "low-level format" parameter of demo scenario 2.
func (c Config) ftlConfig() ftl.Config {
	area := c.formatAreaSize()
	eccCover, eccTail := c.PageSize, 0
	if area > 0 && c.WriteMode != Traditional {
		eccCover = c.PageSize - pageFooterSize - area
		eccTail = pageFooterSize
	}
	return ftl.Config{
		FlashMode:        c.FlashMode.internal(),
		OverprovisionPct: c.OverprovisionPct,
		InPlaceMerge:     c.WriteMode == IPAConventionalSSD,
		EccCoverBytes:    eccCover,
		EccTailBytes:     eccTail,
	}
}

// assemble builds a DB around an existing device, FTL, log and transaction
// manager. Open uses it on a freshly formatted device; Reopen uses it on a
// rebuilt FTL and the durable remains of a crashed log.
func assemble(cfg Config, dev *flashdev.Device, f *ftl.FTL, log *wal.Log, txns *txn.Manager) (*DB, error) {
	flashMode := cfg.FlashMode.internal()
	regions := region.NewManager(region.Region{
		Name:      "default",
		Scheme:    cfg.Scheme.internal(),
		FlashMode: flashMode,
	})
	// The checkpoint catalog page lives in its own region: it is rewritten
	// on every checkpoint with a handful of changed bytes, so it runs the
	// index scheme (falling back to the table scheme) — both fit the
	// device format by construction.
	catScheme := cfg.IndexScheme.internal()
	if !catScheme.Enabled() {
		catScheme = cfg.Scheme.internal()
	}
	if cfg.WriteMode == Traditional {
		catScheme = core.Disabled
	}
	regions.Assign(catalogObjectID, region.Region{
		Name:      "catalog",
		Scheme:    catScheme,
		FlashMode: flashMode,
		Kind:      region.KindCatalog,
	})
	store, err := storage.New(f, storage.Config{
		Mode:           cfg.WriteMode.internal(),
		Regions:        regions,
		TraceEvictions: cfg.TraceEvictions,
	})
	if err != nil {
		return nil, fmt.Errorf("ipa: %w", err)
	}
	// Write-ahead rule: no dirty page reaches Flash before the log records
	// describing its changes are durable. Without this a crash could leave
	// flushed effects that neither redo nor undo knows about.
	store.SetWALBarrier(func() error { return log.Flush(0) })
	pool, err := buffer.New(store, cfg.BufferPoolPages)
	if err != nil {
		return nil, fmt.Errorf("ipa: %w", err)
	}
	// Frames stamp the next LSN when a page first turns dirty (recLSN);
	// the checkpointer flushes dirty pages oldest-recLSN-first so the
	// truncation cut advances as far as possible.
	pool.SetLSNSource(log.NextLSN)
	if cfg.LogFlushLatency > 0 || cfg.LogFlushWallLatency > 0 || cfg.Faults != nil {
		// Model the separate log device: every flush batch costs one
		// device write — of virtual time and, optionally, of real time the
		// flush leader spends waiting — regardless of how many commits the
		// batch carries. That per-batch (not per-commit) cost is the
		// saving group commit is designed to realise. With a fault plan
		// attached, each flush is also a potential power-cut point: a cut
		// here loses the whole batch, which recovery must roll back.
		log.SetFlushHook(func(bytes int) error {
			if cfg.Faults != nil {
				if err := cfg.Faults.LogFlushPoint(); err != nil {
					return err
				}
			}
			if cfg.LogFlushLatency > 0 {
				dev.AdvanceClock(cfg.LogFlushLatency)
			}
			if cfg.LogFlushWallLatency > 0 {
				time.Sleep(cfg.LogFlushWallLatency)
			}
			return nil
		})
	}
	db := &DB{
		cfg:             cfg,
		dev:             dev,
		ftl:             f,
		store:           store,
		pool:            pool,
		regions:         regions,
		log:             log,
		txns:            txns,
		tables:          make(map[string]*Table),
		tablesByID:      make(map[uint32]*Table),
		indexesByID:     make(map[uint32]*Table),
		secondaryByID:   make(map[uint32]*SecondaryIndex),
		secondaryByName: make(map[string]*SecondaryIndex),
		nextObjID:       1,
	}
	// A fresh handle's Stats window starts at the layers' zero.
	db.mark.Store(&reading{chips: make([]ftl.ChipStats, f.Chips())})
	return db, nil
}

// Config returns the configuration the database was opened with (defaults
// applied).
func (db *DB) Config() Config { return db.cfg }

// Now returns the current virtual time of the Flash device. Throughput
// figures are derived from this clock.
func (db *DB) Now() time.Duration { return db.dev.Now() }

// WAL returns the write-ahead log (for recovery tests and inspection).
func (db *DB) WAL() *wal.Log { return db.log }

// CommitWatermark returns the commit-timestamp oracle's contiguous
// watermark: every commit with a timestamp at or below it has finished
// (its record flushed, its versions stamped). It is nondecreasing for the
// lifetime of a DB handle, and after a crash the recovered watermark is at
// least the MaxCommitTS of the last durable checkpoint — the monotonicity
// invariants the chaos harness audits continuously.
func (db *DB) CommitWatermark() uint64 { return db.txns.Oracle().Watermark() }

// SetDeviceOpHook installs (or, with nil, removes) a hook observing every
// Flash chip operation as it starts: the chip index and the operation
// class (OpRead, OpProgram, OpDeltaProgram, OpErase). The chaos harness
// uses it to inject transient device latency spikes and per-chip stalls;
// the hook runs on the operating goroutine and must be safe for concurrent
// use.
func (db *DB) SetDeviceOpHook(h func(chip int, op FaultOp)) {
	if h == nil {
		db.dev.SetOpHook(nil)
		return
	}
	db.dev.SetOpHook(func(chip int, op nand.FaultOp) { h(chip, op) })
}

// AdvanceClock charges extra virtual device time, shared across all chips.
// Layers above the engine (e.g. chaos latency injection) use it to model
// delays that are not chip operations.
func (db *DB) AdvanceClock(dt time.Duration) { db.dev.AdvanceClock(dt) }

// CreateTable creates a table of fixed-size tuples using the database's
// default N×M scheme.
func (db *DB) CreateTable(name string, tupleSize int) (*Table, error) {
	return db.CreateTableWithScheme(name, tupleSize, db.cfg.Scheme)
}

// CreateTableWithScheme creates a table assigned to its own NoFTL region
// with the given N×M scheme, allowing IPA to be applied selectively to
// update-dominated tables.
func (db *DB) CreateTableWithScheme(name string, tupleSize int, scheme Scheme) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	if tupleSize <= 0 || tupleSize > db.cfg.PageSize/4 {
		return nil, fmt.Errorf("ipa: unsupported tuple size %d", tupleSize)
	}
	internal := scheme.internal()
	if err := internal.Validate(); err != nil {
		return nil, fmt.Errorf("ipa: %w", err)
	}
	// Under the traditional write mode every table runs without IPA,
	// regardless of the requested scheme (the baseline of the paper).
	if db.cfg.WriteMode == Traditional {
		internal = core.Disabled
	}
	// The primary-key index gets its own region: index entry pages may run
	// a different scheme than the heap pages (Config.IndexScheme), and the
	// storage manager accounts them separately.
	idxScheme := db.cfg.IndexScheme.internal()
	if !idxScheme.Enabled() {
		idxScheme = internal
	}
	if err := idxScheme.Validate(); err != nil {
		return nil, fmt.Errorf("ipa: index scheme: %w", err)
	}
	if db.cfg.WriteMode == Traditional {
		idxScheme = core.Disabled
	}
	// The low-level format fixes the ECC layout for the whole device, so a
	// table's (or its index's) delta-record area may not exceed the open
	// window the format reserved (tables may always opt out of IPA).
	formatArea := db.cfg.formatAreaSize()
	for _, part := range []struct {
		what   string
		scheme core.Scheme
	}{{"heap scheme", internal}, {"index scheme", idxScheme}} {
		if s := part.scheme; s.Enabled() && s.AreaSize(pageMetaSize) > formatArea {
			return nil, fmt.Errorf("ipa: table %q %s %s needs a %d-byte delta area, exceeding the %d bytes of the device format (Config schemes %s/%s)",
				name, part.what, s, s.AreaSize(pageMetaSize), formatArea, db.cfg.Scheme, db.cfg.IndexScheme)
		}
	}
	return db.registerTableLocked(name, db.nextObjID, db.nextObjID+1, tupleSize, internal, idxScheme), nil
}

// registerTableLocked enters a table into the catalog: the NoFTL regions
// of its heap and of its primary-key index, the object itself and the
// lookup maps. CreateTableWithScheme calls it with fresh identifiers and
// Reopen with the crashed instance's, so a recovered catalog is built by
// the code that built the original. The caller holds db.mu, or — Reopen —
// owns a DB nothing else can reach yet.
func (db *DB) registerTableLocked(name string, id, idxID uint32, tupleSize int, scheme, idxScheme core.Scheme) *Table {
	db.assignRegionLocked(id, name, scheme, region.KindHeap)
	db.assignRegionLocked(idxID, name+".pk", idxScheme, region.KindIndex)
	t := newTable(db, name, id, idxID, tupleSize)
	db.tables[name] = t
	db.tablesByID[id] = t
	db.indexesByID[idxID] = t
	return t
}

// registerSecondaryLocked enters a secondary index of t into the catalog,
// for CreateSecondaryIndex and Reopen alike; the caller, holding db.mu (or
// owning the DB, as above), appends it to t.secondaries under t.mu — which
// is never waited for with db.mu held, because writers take page latches
// under t.mu and rollback looks tables up under a page latch.
func (db *DB) registerSecondaryLocked(t *Table, name string, id uint32, scheme core.Scheme, extract ExtractFunc) *SecondaryIndex {
	db.assignRegionLocked(id, t.name+"."+name, scheme, region.KindIndex)
	s := newSecondaryIndex(t, name, id, extract)
	db.secondaryByID[id] = s
	db.secondaryByName[t.name+"."+name] = s
	return s
}

// assignRegionLocked gives a database object a region of its own, in the
// device's flash mode, and keeps nextObjID above every identifier in use.
func (db *DB) assignRegionLocked(id uint32, name string, scheme core.Scheme, kind region.Kind) {
	db.regions.Assign(id, region.Region{Name: name, Scheme: scheme, FlashMode: db.regions.Default().FlashMode, Kind: kind})
	if id >= db.nextObjID {
		db.nextObjID = id + 1
	}
}

// secondaryCount returns the number of secondary indexes in the catalog.
func (db *DB) secondaryCount() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.secondaryByID)
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	return t, ok
}

// Tables returns the names of all tables, sorted.
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FlushAll writes every dirty buffered page to Flash.
func (db *DB) FlushAll() error { return db.pool.FlushAll() }

// Close flushes all dirty pages and marks the database closed. Close
// waits for in-flight page operations to finish before flushing; from then
// on table operations, transactions begun earlier and db.Begin
// transactions all fail with ErrClosed, so handles held across Close
// cannot silently operate on the flushed buffer pool.
// Concurrent and repeated Close calls all wait for the one flush and
// share its result.
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		db.gate.Lock()
		db.closed.Store(true)
		db.gate.Unlock()
		db.closeErr = db.pool.FlushAll()
	})
	return db.closeErr
}

// checkOpen returns ErrClosed once the database has been closed.
func (db *DB) checkOpen() error {
	if db.closed.Load() {
		return ErrClosed
	}
	return nil
}

// acquire admits one page-mutating or page-reading operation: it blocks a
// concurrent Close from flushing until the operation has finished and
// fails with ErrClosed once the database is closed. Every successful
// acquire must be paired with release.
func (db *DB) acquire() error {
	db.gate.RLock()
	if db.closed.Load() {
		db.gate.RUnlock()
		return ErrClosed
	}
	return nil
}

func (db *DB) release() { db.gate.RUnlock() }

// ResetStats starts a new Stats window, typically after a benchmark's load
// phase so the measurement covers only the workload itself. It clears no
// counter — it marks where the window starts — so it is safe to call while
// transactions are running, and the gauges, the checkpoint trigger and
// the ops readings do not notice it.
func (db *DB) ResetStats() { db.mark.Store(db.read()) }

// Trace returns the fetch/eviction trace recorded since the last
// ResetStats (TraceEvictions must be enabled).
func (db *DB) Trace() []storage.TraceEvent {
	from := db.mark.Load().traceLen // before the trace, which only grows
	return db.store.Trace()[from:]
}

// DeviceGeometry describes the simulated Flash device.
type DeviceGeometry struct {
	Blocks        int
	PagesPerBlock int
	PageSize      int
	LogicalPages  int // pages exported by the FTL
}

// Geometry returns the device and FTL geometry.
func (db *DB) Geometry() DeviceGeometry {
	g := db.dev.Geometry()
	return DeviceGeometry{
		Blocks:        g.Blocks,
		PagesPerBlock: g.PagesPerBlock,
		PageSize:      g.PageSize,
		LogicalPages:  db.ftl.Capacity(),
	}
}

// catalogObjectID owns the single-page durable catalog region holding the
// checkpoint state. It sits at the top of the object-identifier space so it
// can never collide with table or index objects.
const catalogObjectID uint32 = 0xFFFFFFFF

// catalogMagic marks a valid catalog tuple ("IPC1").
const catalogMagic uint32 = 0x49504331

// catalogTupleSize is the encoded size of the catalog tuple: magic,
// checkpoint LSN, truncation cut, max commit timestamp.
const catalogTupleSize = 4 + 8 + 8 + 8

// encodeCatalogTuple serialises the checkpoint state written to the
// catalog page.
func encodeCatalogTuple(ckptLSN, cut, maxTS uint64) []byte {
	buf := make([]byte, catalogTupleSize)
	binary.LittleEndian.PutUint32(buf[0:], catalogMagic)
	binary.LittleEndian.PutUint64(buf[4:], ckptLSN)
	binary.LittleEndian.PutUint64(buf[12:], cut)
	binary.LittleEndian.PutUint64(buf[20:], maxTS)
	return buf
}

// decodeCatalogTuple deserialises a catalog tuple; ok is false when the
// bytes do not carry the catalog magic.
func decodeCatalogTuple(buf []byte) (ckptLSN, cut, maxTS uint64, ok bool) {
	if len(buf) < catalogTupleSize || binary.LittleEndian.Uint32(buf[0:]) != catalogMagic {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(buf[4:]),
		binary.LittleEndian.Uint64(buf[12:]),
		binary.LittleEndian.Uint64(buf[20:]), true
}

// encodeActiveTxns serialises the active-transaction table carried in a
// checkpoint record: (id, firstLSN) pairs.
func encodeActiveTxns(active []txn.ActiveTxn) []byte {
	buf := make([]byte, 16*len(active))
	for i, a := range active {
		binary.LittleEndian.PutUint64(buf[16*i:], a.ID)
		binary.LittleEndian.PutUint64(buf[16*i+8:], a.FirstLSN)
	}
	return buf
}

// CheckpointResult reports one fuzzy checkpoint.
type CheckpointResult struct {
	// LSN is the LSN of the RecCheckpoint record.
	LSN uint64 `json:"lsn"`
	// TruncatedLSN is the cut: the log was recycled up to and including
	// this LSN (segment-granular, so slightly fewer bytes may actually be
	// dropped).
	TruncatedLSN uint64 `json:"truncated_lsn"`
	// PagesFlushed is the number of dirty pages force-flushed,
	// oldest-recLSN-first: pages the checkpoint wrote itself, not those an
	// eviction wrote between the dirty snapshot and their flush.
	PagesFlushed int `json:"pages_flushed"`
	// ActiveTxns is the number of in-flight transactions recorded in the
	// checkpoint's transaction table.
	ActiveTxns int `json:"active_txns"`
	// WALSegments and WALLiveBytes describe the log after recycling.
	WALSegments  int    `json:"wal_segments"`
	WALLiveBytes uint64 `json:"wal_live_bytes"`
}

// Checkpoint takes a fuzzy checkpoint: dirty pages are force-flushed
// oldest-recLSN-first through the write-ahead barrier, a RecCheckpoint
// record carrying the truncation cut and the active-transaction table is
// appended and flushed, the durable catalog page is updated, and finally
// the log segments below the cut are recycled. Writers keep running
// throughout — the checkpoint never quiesces the engine, it only pins the
// cut below the oldest active transaction's first record.
func (db *DB) Checkpoint() (CheckpointResult, error) {
	if err := db.acquire(); err != nil {
		return CheckpointResult{}, err
	}
	defer db.release()
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpoint()
}

// checkpointIfDue is the automatic checkpoint: the commit that leaves
// CheckpointEveryBytes of log since the last checkpoint takes the next one
// itself, once it has left the close gate (a nested acquire would deadlock
// against a waiting Close). A commit that finds a checkpoint running skips
// it, and a failed checkpoint is not the commit's error — the commit is
// already durable — so the next commit past the threshold retries.
func (db *DB) checkpointIfDue() {
	due := func() bool {
		// The mark is loaded first, so the difference cannot go negative.
		at := db.walBytesAtCkpt.Load()
		return db.cfg.CheckpointEveryBytes > 0 && db.log.BytesWritten()-at >= db.cfg.CheckpointEveryBytes
	}
	if !due() || db.acquire() != nil {
		return
	}
	defer db.release()
	if !db.ckptMu.TryLock() {
		return
	}
	defer db.ckptMu.Unlock()
	if due() { // a checkpoint that ended since the first look moved the mark
		_, _ = db.checkpoint()
	}
}

// checkpoint takes the fuzzy checkpoint; the caller holds the close gate
// and ckptMu.
func (db *DB) checkpoint() (CheckpointResult, error) {
	var res CheckpointResult
	// (1) The checkpoint covers everything appended so far. Records after
	// beginLSN belong to the next checkpoint.
	beginLSN := db.log.NextLSN() - 1
	// (2) The cut must stay below the first record of every in-flight
	// transaction: their undo information must survive recycling. A
	// transaction registered after this snapshot only has records above
	// beginLSN, so missing it cannot move the correct cut.
	active := db.txns.ActiveTxns()
	cut := beginLSN
	for _, a := range active {
		if a.FirstLSN == 0 {
			cut = 0
		} else if a.FirstLSN-1 < cut {
			cut = a.FirstLSN - 1
		}
	}
	// (3) Force-flush dirty pages, oldest recLSN first. Every flush runs
	// the write-ahead barrier, so the log is always durable ahead of the
	// page image. Pages evicted (or re-dirtied) since the snapshot are
	// fine: ErrNotCached, or a clean page, means some eviction already
	// wrote the frame out, and only pages written here are counted.
	for _, pid := range db.pool.DirtySnapshot() {
		wrote, err := db.pool.FlushPage(pid)
		switch {
		case err == nil:
			if wrote {
				res.PagesFlushed++
			}
		case errors.Is(err, buffer.ErrNotCached):
		default:
			return res, fmt.Errorf("ipa: checkpoint flush page %d: %w", pid, err)
		}
	}
	// (4+5) Make the checkpoint itself durable.
	ckptLSN := db.log.Append(wal.Record{
		Type:   wal.RecCheckpoint,
		PageID: cut,
		Key:    int64(beginLSN),
		New:    encodeActiveTxns(active),
	})
	if err := db.log.Flush(ckptLSN); err != nil {
		return res, fmt.Errorf("ipa: checkpoint flush: %w", err)
	}
	// (6) Program the catalog page so recovery finds the checkpoint even
	// after the log below it is recycled.
	if err := db.writeCatalog(ckptLSN, cut); err != nil {
		return res, fmt.Errorf("ipa: checkpoint catalog: %w", err)
	}
	// (7) Segment recycling is a crash point of its own: a power cut here
	// leaves a fully durable checkpoint and an over-long log — recovery
	// simply replays a few extra (idempotent) records.
	if db.cfg.Faults != nil {
		if err := db.cfg.Faults.LogFlushPoint(); err != nil {
			return res, fmt.Errorf("ipa: checkpoint recycle: %w", err)
		}
	}
	// (8) Recycle everything below the cut.
	db.log.Truncate(cut)
	// (9) Publish the gauges.
	db.checkpointLSN.Store(ckptLSN)
	db.ckptCut.Store(cut)
	db.walBytesAtCkpt.Store(db.log.BytesWritten())
	atomic.AddUint64(&db.counts.Checkpoints, 1)
	res.LSN = ckptLSN
	res.TruncatedLSN = cut
	res.ActiveTxns = len(active)
	res.WALSegments = db.log.Segments()
	res.WALLiveBytes = db.log.LiveBytes()
	return res, nil
}

// CheckpointState is the durable checkpoint record kept in the catalog
// region on flash: what a restart finds before reading any log.
type CheckpointState struct {
	// LSN is the WAL position of the last fuzzy checkpoint.
	LSN uint64 `json:"checkpoint_lsn"`
	// TruncatedLSN is the truncation cut recorded with it: redo starts
	// after this LSN.
	TruncatedLSN uint64 `json:"truncated_lsn"`
	// MaxCommitTS restarts the commit-timestamp oracle past every commit
	// the truncated log prefix may have carried.
	MaxCommitTS uint64 `json:"max_commit_ts"`
}

// CheckpointState reads the catalog region and returns the durable
// checkpoint state; ok is false when no checkpoint has ever been taken.
// Recovery and the chaos harness use it to read what survives on flash
// below the WAL.
func (db *DB) CheckpointState() (CheckpointState, bool, error) {
	enc := db.catalogPID.Load()
	if enc == 0 {
		return CheckpointState{}, false, nil
	}
	pid := enc - 1
	h, err := db.pool.Fetch(pid)
	if err != nil {
		return CheckpointState{}, false, fmt.Errorf("ipa: catalog page %d: %w", pid, err)
	}
	defer h.Release()
	pg, err := page.Wrap(h.Data())
	if err != nil {
		return CheckpointState{}, false, fmt.Errorf("ipa: catalog page %d: %w", pid, err)
	}
	tuple, err := pg.Tuple(0)
	if err != nil {
		return CheckpointState{}, false, fmt.Errorf("ipa: catalog page %d: %w", pid, err)
	}
	ckptLSN, cut, maxTS, ok := decodeCatalogTuple(tuple)
	if !ok {
		return CheckpointState{}, false, fmt.Errorf("ipa: catalog page %d: bad magic", pid)
	}
	return CheckpointState{LSN: ckptLSN, TruncatedLSN: cut, MaxCommitTS: maxTS}, true, nil
}

// writeCatalog creates (first checkpoint) or overwrites the durable
// catalog page with the checkpoint state. The catalog is below the WAL:
// its page program is atomic on its own (single-tuple page, single-record
// delta appends, mapping-tag ECC for out-of-place writes), so a torn
// program simply leaves the previous checkpoint in force.
func (db *DB) writeCatalog(ckptLSN, cut uint64) error {
	tuple := encodeCatalogTuple(ckptLSN, cut, db.txns.Oracle().Watermark())
	enc := db.catalogPID.Load()
	var (
		pid uint64
		h   *buffer.Handle
		err error
	)
	if enc != 0 {
		pid = enc - 1
		h, err = db.pool.Fetch(pid)
	} else {
		if pid, err = db.store.AllocatePage(catalogObjectID); err != nil {
			return err
		}
		h, err = db.pool.Create(pid, func(buf []byte, t *core.Tracker) error {
			return db.store.InitPage(buf, pid, catalogObjectID, t)
		})
	}
	if err != nil {
		return err
	}
	// The page is flushed through the handle, still pinned and latched: a
	// concurrent reader's miss cannot evict the frame between the update and
	// its write-back.
	defer h.Release()
	pg, err := page.Wrap(h.Data())
	if err != nil {
		return err
	}
	pg.SetRecorder(h.Tracker())
	if enc != 0 {
		err = pg.UpdateTupleAt(0, 0, tuple)
	} else {
		_, err = pg.InsertTuple(tuple)
	}
	if err != nil {
		return err
	}
	h.MarkDirty()
	if err := h.Flush(); err != nil {
		return err
	}
	db.catalogPID.Store(pid + 1)
	return nil
}
