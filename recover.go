package ipa

import (
	"fmt"
	"sort"
	"time"

	"ipa/internal/core"
	"ipa/internal/flashdev"
	"ipa/internal/ftl"
	"ipa/internal/heap"
	"ipa/internal/index"
	"ipa/internal/page"
	"ipa/internal/txn"
	"ipa/internal/wal"
)

// CrashImage is what survives a power cut: the Flash device contents, the
// durable prefix of the write-ahead log and the catalog description (which
// a real system would store in a system table on the device itself). It is
// produced by DB.Crash and consumed by Reopen.
type CrashImage struct {
	cfg        Config
	dev        *flashdev.Device
	records    []wal.Record
	flushedLSN uint64
	lastTxnID  uint64
	tables     []tableSpec
}

// tableSpec is the durable description of one table, its primary-key
// index and its secondary indexes.
type tableSpec struct {
	name        string
	id          uint32
	idxID       uint32
	tupleSize   int
	scheme      core.Scheme
	idxScheme   core.Scheme
	secondaries []secondarySpec
}

// secondarySpec is the durable description of one secondary index. The
// extract function rides along in process memory — a real system would
// store the indexed column in a system table; the simulated crash stays
// within one process, so the function pointer survives like the rest of
// the catalog description.
type secondarySpec struct {
	name    string
	id      uint32
	scheme  core.Scheme
	extract ExtractFunc
}

// Crash simulates the host side of a power cut: the database is poisoned
// (every subsequent operation fails with ErrClosed) WITHOUT flushing dirty
// buffers, and the surviving state — the Flash image, the durable log
// records and the catalog — is captured for Reopen. Unlike Close, nothing
// in volatile memory is saved.
//
// Reopen recovers the primary-key and secondary indexes from their
// surviving entry pages plus the durable write-ahead log; it never scans
// the heaps. Every tuple write is a transaction, so the log covers it; the
// one unlogged index write left is the backfill CreateSecondaryIndex runs
// over pre-existing rows, whose entries survive only if their entry pages
// were flushed (FlushAll) before the cut.
func (db *DB) Crash() *CrashImage {
	db.closeOnce.Do(func() {
		db.gate.Lock()
		db.closed.Store(true)
		db.gate.Unlock()
		// No flush: a power cut saves nothing.
	})
	db.mu.Lock()
	specs := make([]tableSpec, 0, len(db.tablesByID))
	for id, t := range db.tablesByID {
		spec := tableSpec{
			name:      t.name,
			id:        id,
			idxID:     t.idxID,
			tupleSize: t.tupleSize,
			scheme:    db.regions.For(id).Scheme,
			idxScheme: db.regions.For(t.idxID).Scheme,
		}
		t.mu.RLock()
		for _, s := range t.secondaries {
			spec.secondaries = append(spec.secondaries, secondarySpec{
				name:    s.name,
				id:      s.id,
				scheme:  db.regions.For(s.id).Scheme,
				extract: s.extract,
			})
		}
		t.mu.RUnlock()
		specs = append(specs, spec)
	}
	db.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool { return specs[i].id < specs[j].id })
	return &CrashImage{
		cfg:        db.cfg,
		dev:        db.dev,
		records:    db.log.DurableRecords(),
		flushedLSN: db.log.FlushedLSN(),
		lastTxnID:  db.txns.LastTxnID(),
		tables:     specs,
	}
}

// RecoveryStats describes the cost of the last crash recovery (Reopen):
// the restart time in wall-clock and virtual (device) terms, the physical
// pages the FTL rebuild scanned, and the redo, compensation and undo
// operations the log replay issued — O(records since the last checkpoint),
// the quantity fuzzy checkpoints bound.
type RecoveryStats struct {
	Wall          time.Duration `json:"wall_ns"`
	Virtual       time.Duration `json:"virtual_ns"`
	PagesScanned  int           `json:"pages_scanned"`
	RecordsRedone uint64        `json:"records_redone"`
	CheckpointLSN uint64        `json:"checkpoint_lsn"`
}

// RecoveryStats returns the cost of the Reopen that produced this database
// (zero for a database created by Open).
func (db *DB) RecoveryStats() RecoveryStats { return db.recoveryStats }

// Reopen opens a database on the remains of a crash: it power-cycles the
// device, rebuilds the FTL mapping from the OOB tags on Flash (newest valid
// copy of every logical page wins), scrubs pages carrying torn in-place
// appends, recreates the catalog, adopts the surviving heap and index entry
// pages (primary-key and secondary alike), reads the durable checkpoint
// state from the catalog page, and replays the retained write-ahead log —
// which a fuzzy checkpoint has truncated to the records since the last
// checkpoint — in one forward and one reverse pass (analysis, forward
// repeat history with compensation, reverse undo of losers). The undone
// losers are then retired with one durable RecAbort each, so a later recovery
// treats them like any pre-crash abort (conditional compensation) instead
// of stamping their before-images over work committed since. Every index
// comes from its own entry pages plus the log — the heaps are never
// scanned. On success all committed transactions are visible, all losers
// are rolled back and the database is fully usable.
//
// Reopen runs on the calling goroutine, so the device operations it issues,
// and the virtual time they cost, are a function of the crash image alone.
// It may itself be interrupted by an armed fault plan (a crash during
// recovery); recovery is idempotent, so calling Reopen on the same image
// again continues from the surviving state.
func Reopen(img *CrashImage) (*DB, error) {
	wallStart := time.Now()
	virtStart := img.dev.Now()
	cfg := img.cfg
	if cfg.Faults != nil {
		cfg.Faults.PowerCycle()
	}
	f, report, err := ftl.Rebuild(img.dev, cfg.ftlConfig())
	if err != nil {
		return nil, fmt.Errorf("ipa: reopen: %w", err)
	}
	log := wal.NewFromRecords(img.records, img.flushedLSN)
	db, err := assemble(cfg, img.dev, f, log, txn.NewManagerAt(log, img.lastTxnID))
	if err != nil {
		return nil, err
	}
	// Restart the commit-timestamp oracle past the highest durable commit
	// timestamp (carried in each RecCommit's Key field). The version cache
	// starts empty — a crash kills every snapshot, so recovery
	// conservatively truncates all version chains to their newest
	// committed version, which is exactly the heap image the redo/undo
	// passes below produce.
	db.txns.Oracle().StartAt(wal.MaxCommitTS(img.records))
	// Recreate the catalog with the original object identifiers so the
	// region assignments and page ownership line up with the Flash image.
	for _, spec := range img.tables {
		t := db.registerTableLocked(spec.name, spec.id, spec.idxID, spec.tupleSize, spec.scheme, spec.idxScheme)
		for _, ss := range spec.secondaries {
			t.secondaries = append(t.secondaries, db.registerSecondaryLocked(t, ss.name, ss.id, ss.scheme, ss.extract))
		}
	}
	// New page identifiers must not collide with any page on Flash or in
	// the log (a page the crash took before its first flush still has
	// insert records that will recreate it).
	floor := uint64(0)
	if report.MaxLBA >= 0 {
		floor = uint64(report.MaxLBA) + 1
	}
	for _, r := range img.records {
		switch r.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			if r.PageID+1 > floor {
				floor = r.PageID + 1
			}
		}
	}
	db.store.EnsureAllocated(floor)
	// Scrub pages whose winning copy carries a torn append before any
	// ECC-checked read touches them.
	for _, lba := range report.Scrub {
		if err := db.store.ScrubPage(uint64(lba)); err != nil {
			return nil, fmt.Errorf("ipa: reopen: %w", err)
		}
	}
	if err := db.adoptSurvivingPages(floor); err != nil {
		return nil, fmt.Errorf("ipa: reopen: %w", err)
	}
	if err := db.loadCatalog(); err != nil {
		return nil, fmt.Errorf("ipa: reopen: %w", err)
	}
	// Prime each primary-key B-tree from the index entries that reached
	// Flash; the log replay below then overlays the exact committed
	// history (redo) and strips rolled-back residue (undo). No heap scan.
	if err := db.loadIndexes(); err != nil {
		return nil, fmt.Errorf("ipa: reopen: %w", err)
	}
	// The checkpoint cut (from the durable catalog) bounds the replay:
	// records at or below it were force-flushed before the checkpoint
	// became durable, so redo starts there instead of LSN 1.
	analysis := db.log.Analyze()
	redone, err := db.log.Replay(analysis, applier{db}, db.ckptCut.Load())
	if err != nil {
		return nil, fmt.Errorf("ipa: reopen: %w", err)
	}
	if err := db.retireLosers(analysis.Losers); err != nil {
		return nil, fmt.Errorf("ipa: reopen: %w", err)
	}
	if err := db.pool.FlushAll(); err != nil {
		return nil, fmt.Errorf("ipa: reopen: %w", err)
	}
	db.walBytesAtCkpt.Store(db.log.BytesWritten())
	db.recoveryStats = RecoveryStats{
		Wall:          time.Since(wallStart),
		Virtual:       db.dev.Now() - virtStart,
		PagesScanned:  report.PagesScanned,
		RecordsRedone: uint64(redone),
		CheckpointLSN: db.checkpointLSN.Load(),
	}
	return db, nil
}

// retireLosers logs and flushes a RecAbort for every loser the replay just
// rolled back. Without it the losers' records stay losers in the log: after
// the restart a new transaction may commit an update to a row a loser
// touched, and a second crash before a checkpoint cut passes those records
// would make recovery redo the commit and then undo the loser again —
// unconditionally, clobbering the committed value with a stale before-image.
func (db *DB) retireLosers(losers map[uint64]bool) error {
	if len(losers) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(losers))
	for id := range losers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		db.log.Append(wal.Record{TxnID: id, Type: wal.RecAbort})
	}
	return db.log.Flush(0)
}

// snapshotTables returns the current tables in identifier order, so that
// recovery loads them in the same order every time, without holding the
// catalog mutex across any per-table work.
func (db *DB) snapshotTables() []*Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	tables := make([]*Table, 0, len(db.tablesByID))
	for _, t := range db.tablesByID {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].id < tables[j].id })
	return tables
}

// loadIndexes rebuilds every table's entry locations and volatile
// directories — the primary-key B-tree and each secondary index — from
// the index entry pages that survived on Flash. Recovery runs on one
// goroutine before the engine is handed out, so no table mutex is taken.
func (db *DB) loadIndexes() error {
	for _, t := range db.snapshotTables() {
		entries, err := t.idx.Load()
		if err != nil {
			return fmt.Errorf("index of table %q: %w", t.name, err)
		}
		for _, e := range entries {
			t.pk.Insert(e.Key, e.Value)
		}
		for _, s := range t.secondaries {
			sentries, err := s.file.Load()
			if err != nil {
				return fmt.Errorf("secondary index %q of table %q: %w", s.name, t.name, err)
			}
			for _, e := range sentries {
				s.noteLocked(e.Key, e.Value)
			}
		}
	}
	return nil
}

// adoptSurvivingPages assigns every mapped logical page to its owning
// table's heap file or index file, in ascending page order (allocation
// order).
func (db *DB) adoptSurvivingPages(floor uint64) error {
	perObject := make(map[uint32][]uint64)
	buf := make([]byte, db.cfg.PageSize)
	for lba := 0; lba < db.ftl.Capacity() && uint64(lba) < floor; lba++ {
		if !db.ftl.Mapped(lba) {
			continue
		}
		if err := db.ftl.ReadPage(lba, buf); err != nil {
			return fmt.Errorf("page %d unreadable: %w", lba, err)
		}
		pg, err := page.Wrap(buf)
		if err != nil {
			return fmt.Errorf("page %d: %w", lba, err)
		}
		perObject[pg.ObjectID()] = append(perObject[pg.ObjectID()], uint64(lba))
	}
	for objID, pids := range perObject {
		if objID == catalogObjectID {
			// The checkpoint catalog is a single page; remember it so the
			// checkpoint state can be decoded and later checkpoints
			// overwrite it in place.
			if len(pids) != 1 {
				return fmt.Errorf("catalog object owns %d pages, want 1", len(pids))
			}
			db.catalogPID.Store(pids[0] + 1)
			continue
		}
		if t, ok := db.tablesByID[objID]; ok {
			t.heap.AdoptPages(pids)
			continue
		}
		if t, ok := db.indexesByID[objID]; ok {
			t.idx.AdoptPages(pids)
			continue
		}
		if s, ok := db.secondaryByID[objID]; ok {
			s.file.AdoptPages(pids)
			continue
		}
		return fmt.Errorf("page(s) %v owned by unknown object %d", pids, objID)
	}
	return nil
}

// loadCatalog adopts the surviving checkpoint state (if any): the last
// checkpoint's LSN becomes the CheckpointLSN gauge and its max commit
// timestamp bumps the oracle — after truncation the retained log may hold
// no RecCommit records at all, so the catalog is the only witness of how
// far commit timestamps had advanced.
func (db *DB) loadCatalog() error {
	st, ok, err := db.CheckpointState()
	if err != nil || !ok {
		return err
	}
	db.checkpointLSN.Store(st.LSN)
	db.ckptCut.Store(st.TruncatedLSN)
	db.txns.Oracle().StartAt(st.MaxCommitTS)
	return nil
}

// VerifyIntegrity checks the storage stack end to end: the FTL translation
// invariants hold, every mapped page reads back ECC-clean, carries the page
// magic and belongs to a known table or index, and — the index/heap
// cross-check — every table's persistent primary-key index describes
// exactly its live heap tuples (same cardinality, every entry resolving to
// a distinct live RID) and every secondary index describes exactly the
// (extracted key, RID) pairs of the live tuples (no dangling entries, no
// missing ones). Index entries retained purely for MVCC snapshot readers
// (zombies of committed deletes, retained secondary pairs of committed moves)
// are tolerated only when the version cache can justify them; right after
// Reopen the cache is empty, so the cross-check degenerates to the exact
// bijection. The heap scan lives here, as a verification cross-check
// only; the recovery path itself never scans heaps. The crash-torture
// harness runs this after every recovery.
//
// VerifyIntegrity quiesces the engine: it takes the close gate exclusively,
// as Close does, so it waits for every API call in flight and holds off new
// ones until it returns. It checks a state no call is half-way through,
// and may run while other goroutines use the database. Once the database
// is closed it returns ErrClosed.
func (db *DB) VerifyIntegrity() error {
	db.gate.Lock()
	defer db.gate.Unlock()
	if err := db.checkOpen(); err != nil {
		return err
	}
	if err := db.ftl.CheckConsistency(); err != nil {
		return fmt.Errorf("ipa: %w", err)
	}
	buf := make([]byte, db.cfg.PageSize)
	for lba := 0; lba < db.ftl.Capacity(); lba++ {
		if !db.ftl.Mapped(lba) {
			continue
		}
		if err := db.ftl.ReadPage(lba, buf); err != nil {
			return fmt.Errorf("ipa: page %d unreadable: %w", lba, err)
		}
		pg, err := page.Wrap(buf)
		if err != nil {
			return fmt.Errorf("ipa: page %d: %w", lba, err)
		}
		db.mu.Lock()
		_, knownTable := db.tablesByID[pg.ObjectID()]
		_, knownIndex := db.indexesByID[pg.ObjectID()]
		_, knownSecondary := db.secondaryByID[pg.ObjectID()]
		db.mu.Unlock()
		if !knownTable && !knownIndex && !knownSecondary && pg.ObjectID() != catalogObjectID {
			return fmt.Errorf("ipa: page %d owned by unknown object %d", lba, pg.ObjectID())
		}
	}
	for _, t := range db.snapshotTables() {
		if err := t.verifyIndexAgainstHeap(); err != nil {
			return fmt.Errorf("ipa: table %q: %w", t.name, err)
		}
	}
	return nil
}

// verifyIndexAgainstHeap scans the table's heap (the cross-check formerly
// performed by the index rebuild) and confirms that the primary-key index
// is a bijection onto the live tuples and that every secondary index is a
// bijection onto the pairs (extracted key, RID) of the live tuples — each
// live tuple appears under exactly its extracted key, and no entry dangles.
// Entries retained for MVCC snapshot readers are the one sanctioned
// exception: a volatile pk entry whose tuple is gone passes only when the
// version cache still carries a chain for its RID (a committed-delete
// zombie awaiting GC, or an in-flight transactional delete), and such
// entries must already be absent from the persistent file.
func (t *Table) verifyIndexAgainstHeap() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	secs := t.secondaries
	live := make(map[uint64]bool)
	wantSec := make([]map[index.Entry]bool, len(secs))
	for i := range wantSec {
		wantSec[i] = make(map[index.Entry]bool)
	}
	err := t.heap.Scan(func(rid heap.RID, tuple []byte) bool {
		live[rid.Pack()] = true
		for i, s := range secs {
			wantSec[i][index.Entry{Key: s.extract(tuple), Value: rid.Pack()}] = true
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("heap scan: %w", err)
	}
	vc := t.db.txns.Versions()
	seen := make(map[uint64]bool, len(live))
	retained, zombies := 0, 0
	var verr error
	t.pk.Ascend(func(key int64, v uint64) bool {
		if !live[v] {
			if !vc.HasChain(v) {
				verr = fmt.Errorf("key %d maps to RID %s with no live tuple", key, heap.Unpack(v))
				return false
			}
			// Snapshot-retained: a committed-delete zombie awaiting GC (its
			// persistent entry was cleared at commit) or an in-flight
			// transactional delete (persistent entry still present).
			retained++
			if vc.CommittedDeleted(v) {
				zombies++
			}
			return true
		}
		if seen[v] {
			verr = fmt.Errorf("RID %s indexed twice", heap.Unpack(v))
			return false
		}
		seen[v] = true
		return true
	})
	if verr != nil {
		return verr
	}
	if t.pk.Len() != len(live)+retained {
		return fmt.Errorf("index carries %d keys (%d snapshot-retained), heap carries %d live tuples",
			t.pk.Len(), retained, len(live))
	}
	if n := t.idx.Len(); n != t.pk.Len()-zombies {
		return fmt.Errorf("persistent index file carries %d entries, B-tree implies %d (%d committed-delete zombies)",
			n, t.pk.Len()-zombies, zombies)
	}
	for i, s := range secs {
		if err := s.verifyAgainstLocked(wantSec[i]); err != nil {
			return fmt.Errorf("secondary index %q: %w", s.name, err)
		}
	}
	return nil
}

// verifyAgainstLocked checks the secondary index against the expected
// (key, RID) pair set derived from the live heap tuples. Volatile pairs
// outside that set are tolerated only when they are retained for snapshot
// readers: pairs stamped by a committed removal (which must already be
// gone from the persistent file) or pairs whose RID still carries an
// in-flight version chain. Caller holds the table mutex (read).
func (s *SecondaryIndex) verifyAgainstLocked(want map[index.Entry]bool) error {
	vc := s.table.db.txns.Versions()
	matched := 0
	for key, set := range s.rids {
		for v, retired := range set {
			e := index.Entry{Key: key, Value: v}
			if want[e] {
				if !s.file.Contains(key, v) {
					return fmt.Errorf("entry (key %d, RID %s) missing from the persistent file", key, heap.Unpack(v))
				}
				matched++
				continue
			}
			if retired != 0 {
				if s.file.Contains(key, v) {
					return fmt.Errorf("snapshot-retained entry (key %d, RID %s) still in the persistent file", key, heap.Unpack(v))
				}
				continue
			}
			if vc.HasChain(v) {
				// In-flight transactional delete or move; the pair's fate is
				// decided at commit or abort.
				continue
			}
			return fmt.Errorf("entry (key %d, RID %s) has no matching live tuple", key, heap.Unpack(v))
		}
	}
	if matched != len(want) {
		return fmt.Errorf("directory carries %d current entries, heap extraction yields %d", matched, len(want))
	}
	if n := s.file.Len(); n != len(want) {
		return fmt.Errorf("persistent entry file carries %d entries, heap extraction yields %d", n, len(want))
	}
	return nil
}
