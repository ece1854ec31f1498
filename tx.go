package ipa

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"ipa/internal/core"
	"ipa/internal/ftl"
	"ipa/internal/heap"
	"ipa/internal/page"
	"ipa/internal/txn"
	"ipa/internal/wal"
)

// ErrConflict is returned when a transaction cannot acquire a record lock.
// OLTP drivers abort and retry the transaction.
var ErrConflict = txn.ErrConflict

// Tx is a database transaction. All updates — tuple bytes and logical
// index operations alike — are logged to the WAL before they touch the
// buffered pages, and record locks are held until Commit or Abort (strict
// two-phase locking) for writer-writer isolation. In-Place Appends is
// entirely invisible at this level, exactly as the paper requires.
//
// Isolation is an MVCC+2PL hybrid. Reads — plain Get, Table.Scan/
// ScanRange, GetBySecondary, ScanSecondary — run lock-free against a
// snapshot: they see exactly the state committed at the snapshot's
// timestamp, never an uncommitted or later write. Tx.Get reads at a
// transaction-wide snapshot acquired lazily on the first read (repeatable
// read within one Tx); table-level reads use a fresh statement snapshot
// each. Snapshot reads do not lock, so a read-then-write cycle that must
// be stable against concurrent writers still needs GetForUpdate — the
// classic "snapshot reads + locked writes" discipline. See
// docs/DESIGN_MVCC.md for the visibility rule and version storage.
type Tx struct {
	db    *DB
	inner *txn.Txn
	// snap is the transaction's reader snapshot, acquired on first Get
	// and released (with a GC nudge) when the transaction finishes.
	snap    uint64
	hasSnap bool
}

// snapshot returns the transaction's reader snapshot, acquiring it on
// first use.
func (tx *Tx) snapshot() uint64 {
	if !tx.hasSnap {
		tx.snap = tx.db.txns.Oracle().AcquireSnapshot()
		tx.hasSnap = true
	}
	return tx.snap
}

// releaseSnapshot returns the snapshot to the oracle and lets GC reclaim
// whatever only this snapshot was holding alive.
func (tx *Tx) releaseSnapshot() {
	if tx.hasSnap {
		tx.db.txns.Oracle().ReleaseSnapshot(tx.snap)
		tx.hasSnap = false
		tx.db.maybeGC()
	}
}

// Begin starts a new transaction. On a closed database the returned
// transaction is inert: every operation on it, including Commit, fails
// with ErrClosed.
func (db *DB) Begin() *Tx {
	return &Tx{db: db, inner: db.txns.Begin()}
}

// enter rejects operations on finished transactions and on transactions
// whose database has been closed (even if it was begun before Close), and
// holds the close gate when it passes: the caller releases it
// (db.release).
func (tx *Tx) enter() error {
	if tx.inner.Status() != txn.Active {
		return txn.ErrFinished
	}
	return tx.db.acquire()
}

// ID returns the transaction identifier.
func (tx *Tx) ID() uint64 { return tx.inner.ID() }

// lock takes rid's record lock (its version chain's owner).
func (tx *Tx) lock(rid heap.RID) error {
	return tx.counted(tx.inner.Lock(txn.LockKey{PageID: rid.PageID, Slot: rid.Slot}))
}

// counted counts a record-lock request's grant or its no-wait denial, and
// returns its error.
func (tx *Tx) counted(err error) error {
	switch {
	case err == nil:
		atomic.AddUint64(&tx.db.counts.LockAcquisitions, 1)
	case errors.Is(err, txn.ErrConflict):
		atomic.AddUint64(&tx.db.counts.LockConflicts, 1)
	}
	return err
}

// Get returns a copy of the tuple stored under key in table t, read at
// the transaction's snapshot without taking any record lock: the first
// Get pins the snapshot, and every later Get repeats it (repeatable
// read). Uncommitted writes of other transactions are never visible; the
// transaction's own writes are. The value is not locked — a transaction
// whose logic depends on it staying put must use GetForUpdate.
func (tx *Tx) Get(t *Table, key int64) ([]byte, error) { return tx.AppendGet(nil, t, key) }

// AppendGet is Get appending the tuple to dst, which it returns (dst
// unchanged on error).
func (tx *Tx) AppendGet(dst []byte, t *Table, key int64) ([]byte, error) {
	if err := tx.enter(); err != nil {
		return dst, err
	}
	defer tx.db.release()
	return t.getVisible(dst, key, tx.snapshot(), tx.inner.ID())
}

// GetForUpdate returns a copy of the tuple stored under key in table t
// after acquiring its record lock, which is then held until Commit or
// Abort. The returned value is stable: no concurrent transaction can
// change or roll back the tuple while the lock is held.
func (tx *Tx) GetForUpdate(t *Table, key int64) ([]byte, error) {
	if err := tx.enter(); err != nil {
		return nil, err
	}
	defer tx.db.release()
	rid, err := t.rid(key)
	if err != nil {
		return nil, err
	}
	return tx.lockedGet(t, key, rid)
}

// lockedGet takes the record lock of key's row rid and copies its tuple in
// one visit under the page's shared latch.
func (tx *Tx) lockedGet(t *Table, key int64, rid heap.RID) ([]byte, error) {
	var tuple []byte
	err := t.heap.View(rid, func(cur []byte) error {
		if err := tx.lock(rid); err != nil {
			return err
		}
		if cur == nil {
			// A pending delete of our own, or a zombie entry of a committed
			// one retained for older snapshots: under the lock the key
			// reads as absent.
			return errKeyNotFound(t, key)
		}
		tuple = bytes.Clone(cur)
		return nil
	})
	return tuple, err
}

// Insert stores a new tuple under key in table t.
func (tx *Tx) Insert(t *Table, key int64, tuple []byte) error {
	if err := tx.enter(); err != nil {
		return err
	}
	defer tx.db.release()
	t.mu.Lock()
	defer t.mu.Unlock()
	// A pk entry left by a PENDING delete still blocks the key (the
	// deleter may abort and resurrect the tuple — the key-level analogue
	// of strict 2PL), but a zombie of a COMMITTED delete, retained only
	// for older snapshots, does not: the insert overwrites it in place.
	// Older snapshots then lose the key's old mapping — the documented
	// delete-then-reinsert anomaly (docs/DESIGN_MVCC.md).
	if v, ok := t.pk.Get(key); ok && !t.db.txns.Versions().CommittedDeleted(v) {
		return fmt.Errorf("%w: %d", ErrDuplicateKey, key)
	}
	// Write-ahead: the insert is logged while the heap still pins the page,
	// or an eviction from another goroutine could store the page between
	// the two and a crash would leave a tuple no log record knows about.
	// The same visit locks the record and registers its chain before any
	// reader can find the RID via an index entry, so snapshot readers see
	// the key as absent until we commit.
	rid, err := t.heap.InsertLogged(tuple, func(rid heap.RID) error {
		if _, err := tx.inner.LogInsert(t.id, rid.PageID, rid.Slot, tuple); err != nil {
			return err
		}
		t.db.txns.Versions().OnInsert(rid.Pack(), tx.inner)
		atomic.AddUint64(&tx.db.counts.LockAcquisitions, 1)
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := tx.inner.LogIndexInsert(t.idxID, key, rid.Pack()); err != nil {
		return err
	}
	if err := t.indexSetLocked(key, rid.Pack()); err != nil {
		return err
	}
	for _, s := range t.secondaries {
		skey := s.extract(tuple)
		if _, err := tx.inner.LogIndexInsert(s.id, skey, rid.Pack()); err != nil {
			return err
		}
		if err := s.addLocked(skey, rid.Pack()); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the tuple stored under key in table t. The before image
// and the index entry are logged, so rollback and recovery can restore
// both the tuple and its primary-key mapping.
//
// The key stays reserved until Commit: the tuple is deleted immediately,
// but the pk entry is removed only when the transaction commits, so a
// concurrent Insert of the same key fails with ErrDuplicateKey instead of
// racing the uncommitted delete — the key-level analogue of strict 2PL: an
// abort would otherwise resurrect a tuple whose key was re-taken. Commit
// retires the entry its RecIndexDelete record names (retirePK). Deleting
// the same key twice (or reinserting it) within one transaction
// therefore also fails. Snapshot readers keep seeing the tuple's last
// committed version (through its version chain) until the delete commits
// and their snapshots move past it.
func (tx *Tx) Delete(t *Table, key int64) error {
	if err := tx.enter(); err != nil {
		return err
	}
	defer tx.db.release()
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.pk.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s key %d", ErrKeyNotFound, t.name, key)
	}
	rid := heap.Unpack(v)
	old, err := tx.lockedGet(t, key, rid)
	if err != nil {
		return err
	}
	if _, err := tx.inner.LogDelete(t.id, rid.PageID, rid.Slot, old); err != nil {
		return err
	}
	if _, err := tx.inner.LogIndexDelete(t.idxID, key, v); err != nil {
		return err
	}
	// Secondary entries: the persistent half is removed now (recovery
	// semantics unchanged), the volatile pair is retained so snapshot
	// readers can keep resolving the tuple under its secondary keys, and
	// retired at commit. Rollback restores the persistent entries through
	// the logged records.
	for _, s := range t.secondaries {
		skey := s.extract(old)
		if _, err := tx.inner.LogIndexDelete(s.id, skey, v); err != nil {
			return err
		}
		if err := s.file.Remove(skey, v); err != nil {
			return err
		}
	}
	// Push the committed pre-image into the version cache before the heap
	// slot goes away, then delete. Readers resolve the chain first, so
	// they never observe the slot's disappearance as a missing key.
	if err := t.db.txns.Versions().OnWriteOwned(v, tx.inner, old, true); err != nil {
		return err
	}
	return t.heap.Delete(rid)
}

// UpdateAt overwrites len(data) bytes of the tuple stored under key in
// table t, starting at the tuple-relative offset. The before image is
// logged for rollback and recovery. It visits the page once, under its
// exclusive latch: the record is locked and its pre-image pushed onto the
// version chain in one stripe trip (readers resolve the chain first, so it
// moves first), the update is logged, and the bytes change (see mvcc.go
// for the lock order).
func (tx *Tx) UpdateAt(t *Table, key int64, offset int, data []byte) error {
	if err := tx.enter(); err != nil {
		return err
	}
	defer tx.db.release()
	// The key's RID and the secondaries in one read-lock trip: the slice
	// is only ever appended to, under the write lock, so the elements a
	// captured header covers never change.
	t.mu.RLock()
	v, ok := t.pk.Get(key)
	secs := t.secondaries
	t.mu.RUnlock()
	if !ok {
		return errKeyNotFound(t, key)
	}
	rid := heap.Unpack(v)
	var moves []secondaryMove
	err := t.heap.UpdateAtWith(rid, offset, data, func(cur []byte) error {
		if cur == nil || offset < 0 || offset+len(data) > len(cur) {
			// Refused, but a row another transaction holds is a conflict.
			if err := tx.lock(rid); err != nil {
				return err
			}
			if cur == nil {
				return fmt.Errorf("%w: %s", heap.ErrNotFound, rid)
			}
			return fmt.Errorf("ipa: update [%d,%d) outside tuple of %d bytes", offset, offset+len(data), len(cur))
		}
		// The cache takes the copy over as the superseded version.
		if err := tx.counted(t.db.txns.Versions().OnWriteOwned(rid.Pack(), tx.inner, bytes.Clone(cur), false)); err != nil {
			return err
		}
		// The log copies both images, so the before image is simply the
		// page's own bytes.
		if _, err := tx.inner.LogUpdate(rid.PageID, rid.Slot, uint16(offset), cur[offset:offset+len(data)], data); err != nil {
			return err
		}
		// Updates that change an extracted secondary key move the tuple's
		// entry under the new key: one logical delete + insert pair per
		// affected index, logged before the bytes change so rollback and
		// recovery reverse or replay the move with the tuple update.
		moves = secondaryMoves(secs, cur, offset, data)
		for _, mv := range moves {
			if _, err := tx.inner.LogIndexDelete(mv.sec.id, mv.oldKey, rid.Pack()); err != nil {
				return err
			}
			if _, err := tx.inner.LogIndexInsert(mv.sec.id, mv.newKey, rid.Pack()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return tx.applyMoves(t, moves, rid.Pack())
}

// applyMoves relocates secondary entries for a transactional update: the
// new pair is added to both index halves, the old pair's persistent entry
// is removed, and its volatile half is retained for snapshot readers and
// retired at commit.
func (tx *Tx) applyMoves(t *Table, moves []secondaryMove, packed uint64) error {
	if len(moves) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, mv := range moves {
		if err := mv.sec.file.Remove(mv.oldKey, packed); err != nil {
			return err
		}
		if err := mv.sec.addLocked(mv.newKey, packed); err != nil {
			return err
		}
	}
	return nil
}

// Commit makes the transaction durable, charges the configured per-
// transaction CPU cost to the virtual clock and releases all locks. On a
// closed database Commit fails with ErrClosed; like Abort it still
// releases the record locks (the transaction stays a WAL loser, so
// recovery rolls its changes back). The commit that leaves
// Config.CheckpointEveryBytes of log since the last checkpoint then takes
// the next one; its error is not the commit's.
func (tx *Tx) Commit() error {
	if err := tx.commit(); err != nil {
		return err
	}
	tx.db.checkpointIfDue()
	return nil
}

// commit is Commit up to the checkpoint, inside the close gate.
func (tx *Tx) commit() error {
	if tx.inner.Status() != txn.Active {
		return txn.ErrFinished
	}
	// Commit runs under the close gate so it either completes before a
	// concurrent Close flushes, or observes the closed flag and fails —
	// a commit can never succeed after Close has returned.
	if err := tx.db.acquire(); err != nil {
		_ = tx.inner.Detach()
		tx.releaseSnapshot()
		atomic.AddUint64(&tx.db.counts.AbortedTxns, 1)
		return err
	}
	defer tx.db.release()
	if err := tx.inner.Commit(); err != nil {
		// The commit record never became durable (power cut during the log
		// flush): the transaction is finished as a loser — recovery rolls
		// its effects back after the restart.
		tx.releaseSnapshot()
		atomic.AddUint64(&tx.db.counts.AbortedTxns, 1)
		return err
	}
	// The transaction is durable and its version chains are stamped with
	// the commit timestamp. Release our own snapshot first (so it cannot
	// keep our own retirements alive), then retire the index entries its
	// RecIndexDelete records name — deleted keys and removed secondary
	// pairs: the persistent halves go now, the volatile halves survive
	// until no snapshot predates the commit (see retirePK/retirePair in
	// mvcc.go).
	ts := tx.inner.CommitTS()
	tx.releaseSnapshot()
	ap := applier{tx.db}
	for _, r := range tx.inner.Logged() {
		if r.Type == wal.RecIndexDelete {
			ap.retire(r, ts)
		}
	}
	// Only now — with the commit record durable AND the persistent index
	// entries of deleted keys retired — may the fuzzy checkpoint's
	// truncation cut advance past this transaction's records: nothing of
	// it can need the log any more.
	tx.db.txns.Deregister(tx.inner.ID())
	tx.db.dev.AdvanceClock(tx.db.cfg.TxnCPUCost)
	atomic.AddUint64(&tx.db.counts.CommittedTxns, 1)
	return nil
}

// Abort rolls the transaction back by restoring the before images of its
// updates and releases all locks. On a closed database the before images
// can no longer be applied to the flushed buffer pool; the record locks
// are still released (so shutdown never leaks them), no abort record is
// written, and the transaction remains a WAL loser, so Reopen rolls its
// flushed updates back after a restart.
func (tx *Tx) Abort() error {
	if tx.inner.Status() != txn.Active {
		return txn.ErrFinished
	}
	if err := tx.db.acquire(); err != nil {
		derr := tx.inner.Detach()
		tx.releaseSnapshot()
		atomic.AddUint64(&tx.db.counts.AbortedTxns, 1)
		return derr
	}
	defer tx.db.release()
	if err := tx.inner.Abort(applier{tx.db}); err != nil {
		return err
	}
	// The undo pass restored the tuples and persistent index entries, and
	// the version chains flipped back to their committed state; the
	// retained volatile index entries were never touched.
	tx.releaseSnapshot()
	atomic.AddUint64(&tx.db.counts.AbortedTxns, 1)
	return nil
}

// applier turns write-ahead log records into page and index writes: the
// one place outside tests that switches on a record's type to change the
// database. Transaction rollback (Undo), recovery's forward pass (Redo, and
// Compensate for transactions that aborted before the crash) and its
// reverse pass over the losers (Undo) all come through Apply:
//
//	                 Redo                       Undo                              Compensate
//	RecUpdate        install New iff slot live  install Old                       install Old iff slot live and bytes == New
//	RecInsert        recreate lost page, fill   delete slot iff present, live     as Undo (replay never asks)
//	                 gap slots, restore New
//	RecDelete        delete slot iff live       restore Old iff slot deleted      as Undo
//	RecIndexInsert   put key → RID              drop iff pk still maps to this    as Undo (replay never asks)
//	                                            RID / the exact secondary pair
//	RecIndexDelete   drop                       put iff pk key unmapped / the     as Undo
//	                                            exact secondary pair
//
// Every cell is idempotent, and every cell but RecInsert/Redo skips a page
// that never reached Flash (ftl.ErrUnmapped): there is nothing to repeat
// or roll back on it. A commit hands its own RecIndexDelete records to
// retire, which finishes the deletions once no snapshot needs them.
type applier struct{ db *DB }

// Apply implements wal.Applier.
func (ap applier) Apply(r *wal.Record, a wal.Action) error {
	db, redo := ap.db, a == wal.Redo
	switch r.Type {
	case wal.RecUpdate, wal.RecInsert, wal.RecDelete:
	case wal.RecIndexInsert:
		return ap.applyIndex(r.ObjectID, r.Key, wal.ValueOf(r.New), redo, !redo)
	case wal.RecIndexDelete:
		return ap.applyIndex(r.ObjectID, r.Key, wal.ValueOf(r.Old), !redo, !redo)
	default:
		return fmt.Errorf("ipa: a %s record has nothing to apply", r.Type)
	}
	pid, slot := r.PageID, int(r.Slot)
	h, err := db.pool.Fetch(pid)
	if errors.Is(err, ftl.ErrUnmapped) {
		if r.Type != wal.RecInsert || !redo {
			return nil
		}
		// A committed insert whose page the crash took before its first
		// flush: the page comes back empty and rejoins its heap file.
		h, err = db.pool.Create(pid, func(buf []byte, t *core.Tracker) error {
			return db.store.InitPage(buf, pid, r.ObjectID, t)
		})
		if err == nil {
			db.store.EnsureAllocated(pid + 1)
			if t := db.tableByID(r.ObjectID); t != nil {
				t.heap.AdoptPage(pid)
			}
		}
	}
	if err != nil {
		return err
	}
	defer h.Release()
	pg, err := page.Wrap(h.Data())
	if err != nil {
		return err
	}
	pg.SetRecorder(h.Tracker())
	switch {
	case r.Type == wal.RecInsert && redo:
		// Materialise any missing slots in front of this one. Each gap slot
		// belongs to another logged insert with a LOWER LSN — Tx.Insert holds
		// the table mutex across slot assignment and log append, so slot order
		// equals LSN order per page, and a commit flush covering this record
		// also made every lower-slot record durable. That insert will either
		// restore the gap slot (committed) or delete it (loser) in its own
		// turn, so no placeholder survives recovery. Fixed-size tuples make
		// the layout deterministic.
		for pg.SlotCount() <= slot {
			if _, err := pg.InsertTuple(make([]byte, len(r.New))); err != nil {
				return err
			}
		}
		err = pg.RestoreTuple(slot, r.New)
	case r.Type == wal.RecUpdate && redo:
		// A deleted slot means a later committed delete of the tuple
		// already reached Flash: there is nothing left to repeat.
		deleted, derr := pg.Deleted(slot)
		if derr != nil || deleted {
			return derr
		}
		err = pg.UpdateTupleAt(slot, int(r.Offset), r.New)
	case r.Type == wal.RecUpdate && a == wal.Undo:
		err = pg.UpdateTupleAt(slot, int(r.Offset), r.Old)
	default:
		// The conditional cells look at the slot first.
		if slot >= pg.SlotCount() {
			return nil
		}
		deleted, derr := pg.Deleted(slot)
		if derr != nil {
			return derr
		}
		switch {
		case r.Type == wal.RecUpdate:
			if deleted {
				return nil
			}
			cur, terr := pg.Tuple(slot)
			if terr != nil {
				return terr
			}
			end := int(r.Offset) + len(r.New)
			if end > len(cur) || !bytes.Equal(cur[r.Offset:end], r.New) {
				return nil
			}
			err = pg.UpdateTupleAt(slot, int(r.Offset), r.Old)
		case (r.Type == wal.RecDelete) == redo:
			// A delete repeated or an insert rolled back: the slot goes.
			// The tuple's index entries have records of their own.
			if deleted {
				return nil
			}
			err = pg.DeleteTuple(slot)
		default:
			// A delete rolled back, if it reached the surviving state at all.
			if !deleted {
				return nil
			}
			err = pg.RestoreTuple(slot, r.Old)
		}
	}
	if err != nil {
		return err
	}
	h.MarkDirty()
	return nil
}

// applyIndex puts (key → value) into, or drops it from, the index named by
// objectID — a table's primary key or one of its secondary indexes — in
// both the volatile directory and the persistent entry file. Repeating
// history is unconditional and idempotent (a pk remap rewrites the entry's
// value bytes in place, the key alone names the entry to drop; an existing
// secondary pair is a no-op). Rolling back is conditional on the primary
// key, so that a later committed writer of the same key is never
// clobbered: an entry is restored only while the key is unmapped and
// dropped only while it still maps to this RID. Secondary entries are
// (key, RID) pairs and heap slots are never reused, so the exact pair gives
// the same guarantee there with no condition.
func (ap applier) applyIndex(objectID uint32, key int64, value uint64, put, conditional bool) error {
	switch t, s := ap.index(objectID); {
	case t != nil:
		t.mu.Lock()
		defer t.mu.Unlock()
		if conditional {
			if v, ok := t.pk.Get(key); put && ok || !put && (!ok || v != value) {
				return nil
			}
		}
		if put {
			return t.indexSetLocked(key, value)
		}
		return t.indexClearLocked(key)
	case s != nil:
		s.table.mu.Lock()
		defer s.table.mu.Unlock()
		if put {
			return s.addLocked(key, value)
		}
		return s.removeLocked(key, value)
	}
	return fmt.Errorf("ipa: index record for unknown index object %d", objectID)
}

// retire finishes the committed index deletion r at the commit timestamp
// ts: a primary-key entry goes through retirePK, a secondary pair through
// retirePair, each keeping the volatile half for older snapshots.
func (ap applier) retire(r *wal.Record, ts uint64) {
	switch t, s := ap.index(r.ObjectID); {
	case t != nil:
		t.retirePK(r.Key, ts)
	case s != nil:
		s.retirePair(r.Key, wal.ValueOf(r.Old), ts)
	}
}

// index returns the table whose primary key, or the secondary index, that
// objectID names; both are nil for an unknown object.
func (ap applier) index(objectID uint32) (*Table, *SecondaryIndex) {
	ap.db.mu.Lock()
	defer ap.db.mu.Unlock()
	return ap.db.indexesByID[objectID], ap.db.secondaryByID[objectID]
}

// tableByID returns the table owning the given heap object, or nil.
func (db *DB) tableByID(objectID uint32) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.tablesByID[objectID]
}
