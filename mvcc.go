package ipa

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ipa/internal/heap"
	"ipa/internal/txn"
)

// This file is the engine half of MVCC snapshot reads (the substrate — the
// commit-timestamp Oracle and the VersionCache — lives in internal/txn;
// see docs/DESIGN_MVCC.md). It routes reads through the version cache and
// parks the index entries that committed deletes and secondary moves leave
// behind for older snapshots on the cache's GC queue.
//
// The heap slot always holds the newest bytes of a record; superseded
// committed versions live in the version cache keyed by packed RID. A
// reader therefore resolves the chain first, without any page latch, and
// only touches the heap when the chain says the slot's bytes are the
// visible version. It reads them under the page's shared latch, and there
// checks the stripe's sequence number once: if the chain moved since it
// was resolved, it resolves again under the latch, where the bytes cannot
// change and the chain already describes them — a writer changes a
// tuple's bytes only under the exclusive latch, after its chain describes
// the change. The lock order is table mutex, then page latch, then version
// stripe — writers lock and version a row under the page latch
// (Tx.UpdateAt, Tx.Insert, Tx.GetForUpdate), and nothing takes a latch
// under a stripe mutex. The record lock is the chain's owner
// (internal/txn); there is no lock table.

// readVersion appends the tuple of rid visible at snapshot snap to dst
// (selfTxn is the reading transaction's id, 0 for table-level reads — a
// transaction always sees its own writes). ok=false means the record does
// not exist at the snapshot, and dst comes back as it went in.
func (t *Table) readVersion(dst []byte, rid heap.RID, snap, selfTxn uint64) (tuple []byte, ok bool, err error) {
	vc := t.db.txns.Versions()
	packed := rid.Pack()
	res, seq := vc.Resolve(packed, snap, selfTxn)
	if res.Kind != txn.ResHeap {
		return append(dst, res.Data...), res.Kind == txn.ResData, nil
	}
	tuple = dst
	err = t.heap.View(rid, func(cur []byte) error {
		if !vc.Validate(packed, seq) {
			res, _ = vc.Resolve(packed, snap, selfTxn)
		}
		if res.Kind == txn.ResHeap {
			// A slot gone (cur nil) with nothing in the cache saying
			// otherwise is a committed delete whose chain GC already
			// trimmed (this snapshot postdates it), reached through an
			// index entry the caller captured before its entry was dropped.
			res.Data = cur
		}
		ok = res.Data != nil // absent when nil
		tuple = append(tuple, res.Data...)
		return nil
	})
	return tuple, ok, err
}

// getVisible is the snapshot read behind Tx.AppendGet and Table.AppendGet:
// primary-key lookup (no record lock) followed by version resolution.
func (t *Table) getVisible(dst []byte, key int64, snap, selfTxn uint64) ([]byte, error) {
	t.mu.RLock()
	v, ok := t.pk.Get(key)
	t.mu.RUnlock()
	if !ok {
		return dst, errKeyNotFound(t, key)
	}
	tuple, ok, err := t.readVersion(dst, heap.Unpack(v), snap, selfTxn)
	if err == nil && !ok {
		err = errKeyNotFound(t, key)
	}
	return tuple, err
}

// maybeGC runs MVCC garbage collection at the oldest active snapshot: the
// version cache drops the index entries retained for older snapshots and
// trims the chains they superseded (entries first, so a retained entry
// always has its chain to justify it). Pure in-memory work — callable with
// or without the close gate, never under a table mutex (a drop takes it).
// Called after snapshot releases; with nothing parked it returns before
// taking a lock (what is parked after the look is its parker's: Txn.Commit
// parks before EndCommit, and retain collects after it parks).
func (db *DB) maybeGC() {
	vc := db.txns.Versions()
	if db.closed.Load() || vc.ParkedMarks() == 0 {
		return
	}
	vc.GC(db.txns.Oracle().OldestActive())
}

// retain parks drop, the removal of an index entry a committed delete or
// secondary-key move left behind for the snapshots older than ts, on the
// version cache's GC queue, then collects: a snapshot that let go after
// the caller chose to retain may have run its GC already. The caller holds
// no table mutex.
func (db *DB) retain(ts uint64, drop func()) {
	db.txns.Versions().Retain(ts, drop)
	db.maybeGC()
}

// dropPKZombie removes the volatile pk entry of a committed delete, unless
// the key was re-taken (the entry now points at a different, live RID).
// The persistent entry was already cleared at commit time.
func (t *Table) dropPKZombie(key int64, rid uint64) {
	atomic.AddUint64(&t.db.counts.ZombiesReclaimed, 1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.pk.Get(key); ok && v == rid {
		t.pk.Delete(key)
	}
}

// dropPairZombie removes a retained volatile secondary pair, but only if
// the directory still stamps it with the retiring commit's timestamp ts: a
// re-add set the stamp to 0 (the pair is live again), a later retirement
// re-stamped it (a younger retained entry owns the drop). Both checks
// happen under table.mu, so a drop racing a move-back can never drop a
// pair that just became current.
func (s *SecondaryIndex) dropPairZombie(key int64, rid uint64, ts uint64) {
	atomic.AddUint64(&s.table.db.counts.ZombiesReclaimed, 1)
	s.table.mu.Lock()
	if s.rids[key][rid] == ts {
		s.dropVolatileLocked(key, rid)
	}
	s.table.mu.Unlock()
}

// retirePK finishes a committed delete of key: the persistent index entry
// is cleared (recovery re-applies the deletion from the log anyway), while
// the volatile B-tree entry is retained for any snapshot older than the
// delete's commit timestamp. Runs after the commit record is durable and
// the record locks are released, so the key may already have been
// re-taken by a new insert — detected by the tuple being live again — in
// which case there is nothing to retire.
func (t *Table) retirePK(key int64, ts uint64) {
	t.mu.Lock()
	v, ok := t.pk.Get(key)
	if !ok {
		t.mu.Unlock()
		return
	}
	if _, err := t.heap.Get(heap.Unpack(v)); !errors.Is(err, heap.ErrNotFound) {
		// Live again (insert-over-zombie won the race), or unreadable
		// after an injected power cut — either way, leave it alone.
		t.mu.Unlock()
		return
	}
	// An error clearing the persistent entry (only an injected power cut
	// while tombstoning an entry page) must not fail the commit: the
	// commit record is durable and recovery re-applies the deletion.
	_ = t.idx.Delete(key)
	keep := !t.db.txns.Oracle().NoActiveBefore(ts)
	if !keep {
		t.pk.Delete(key)
	}
	t.mu.Unlock()
	if keep {
		t.db.retain(ts, func() { t.dropPKZombie(key, v) })
	}
}

// retirePair finishes a committed secondary-entry removal (a delete or the
// old key of an update move): the persistent pair was already removed when
// the operation ran; the volatile pair, if the directory holds it, is
// stamped with ts and retained for older snapshots unless no such snapshot
// exists. Like retirePK this runs after lock release, so the pair may
// describe a live tuple again (A→B→A double move within the transaction,
// or a later writer) — then it stays.
func (s *SecondaryIndex) retirePair(key int64, rid uint64, ts uint64) {
	t := s.table
	t.mu.Lock()
	tuple, err := t.heap.Get(heap.Unpack(rid))
	keep := false
	switch {
	case err == nil && s.extract(tuple) == key:
		// Live again: an A→B→A double move within the transaction, or a
		// later writer moved the tuple back. Nothing to retire.
	case err != nil && !errors.Is(err, heap.ErrNotFound):
		// Unreadable (power cut): keep the pair, stay conservative.
	case t.db.txns.Oracle().NoActiveBefore(ts):
		s.dropVolatileLocked(key, rid)
	default:
		if _, held := s.rids[key][rid]; held {
			s.rids[key][rid], keep = ts, true
		}
	}
	t.mu.Unlock()
	if keep {
		t.db.retain(ts, func() { s.dropPairZombie(key, rid, ts) })
	}
}

// snapshotted runs fn under a freshly acquired statement snapshot,
// releasing it (and nudging GC) afterwards.
func (db *DB) snapshotted(fn func(snap uint64) error) error {
	ora := db.txns.Oracle()
	snap := ora.AcquireSnapshot()
	err := fn(snap)
	ora.ReleaseSnapshot(snap)
	db.maybeGC()
	return err
}

// errKeyNotFound builds the canonical not-found error.
func errKeyNotFound(t *Table, key int64) error {
	return fmt.Errorf("%w: %s key %d", ErrKeyNotFound, t.name, key)
}
