package ipa

import (
	"errors"
	"fmt"
	"sync"

	"ipa/internal/btree"
	"ipa/internal/heap"
	"ipa/internal/index"
	"ipa/internal/page"
)

// pageMetaSize is the Δmetadata length (page header + footer).
const pageMetaSize = page.MetaSize

// pageFooterSize is the page footer length; the delta-record area sits
// directly in front of the footer.
const pageFooterSize = page.FooterSize

// ErrKeyNotFound is returned when a primary key does not exist.
var ErrKeyNotFound = errors.New("ipa: key not found")

// ErrDuplicateKey is returned when inserting an existing primary key.
var ErrDuplicateKey = errors.New("ipa: duplicate key")

// Table is a collection of fixed-size tuples with an int64 primary key.
//
// The primary-key index is persistent and IPA-native: every key owns one
// 16-byte entry in the table's index file — entry pages that live in the
// buffer pool, belong to the index's own NoFTL region and reach Flash as
// N×M delta appends like any other page. The sorted B-tree (pk) is the
// volatile search structure over those entries; it is rebuilt from the
// entry pages and the write-ahead log on Reopen, never by scanning heaps.
// Non-unique secondary indexes (CreateSecondaryIndex) follow the same
// architecture with (key, RID) entries; see SecondaryIndex.
//
// A Table exposes reads only (Get, Scan, ScanRange and the secondary
// lookups); every write goes through a Tx, so it is logged, locked and
// versioned — there is no second, unlogged write path.
//
// Tables are safe for concurrent use. The per-table read/write mutex is the
// table's one lock: it guards pk, the secondary directories, the index
// entry files and the heap's page list (neither internal/heap nor
// internal/index locks anything of its own). Tuple bytes synchronise at
// page granularity inside the sharded buffer pool (readers take shared
// frame latches, writers exclusive ones), so operations on different pages
// — and concurrent reads of the same page — proceed in parallel.
type Table struct {
	db        *DB
	name      string
	id        uint32
	idxID     uint32 // object identifier of the primary-key index
	tupleSize int

	mu   sync.RWMutex
	heap *heap.File // its page list is mu's, its tuples the page latches'
	pk   *btree.Tree
	idx  *index.File
	// secondaries are the table's secondary indexes in creation order;
	// their volatile directories share t.mu with the pk B-tree.
	secondaries []*SecondaryIndex
}

func newTable(db *DB, name string, id, idxID uint32, tupleSize int) *Table {
	return &Table{
		db:        db,
		name:      name,
		id:        id,
		idxID:     idxID,
		tupleSize: tupleSize,
		heap:      heap.New(db.store, db.pool, id, tupleSize),
		pk:        btree.New(),
		idx:       index.New(db.store, db.pool, idxID),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// ID returns the table's object identifier.
func (t *Table) ID() uint32 { return t.id }

// IndexID returns the object identifier of the table's primary-key index.
func (t *Table) IndexID() uint32 { return t.idxID }

// IndexPages returns the number of persistent index entry pages.
func (t *Table) IndexPages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.idx.Pages()
}

// TupleSize returns the fixed tuple size in bytes.
func (t *Table) TupleSize() int { return t.tupleSize }

// Count returns the number of rows: the primary-key entry file's length,
// which counts committed rows and uncommitted inserts, and a deleted row
// until its delete commits.
func (t *Table) Count() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return uint64(t.idx.Len())
}

// Pages returns the number of heap pages of the table.
func (t *Table) Pages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.heap.PageIDs())
}

// indexSetLocked maps key to the packed RID in both the volatile B-tree
// and the persistent index file. Caller holds t.mu.
func (t *Table) indexSetLocked(key int64, value uint64) error {
	if err := t.idx.Set(key, value); err != nil {
		return err
	}
	t.pk.Insert(key, value)
	return nil
}

// indexClearLocked removes key from both index structures. Caller holds
// t.mu. Clearing an absent key is a no-op.
func (t *Table) indexClearLocked(key int64) error {
	if err := t.idx.Delete(key); err != nil {
		return err
	}
	t.pk.Delete(key)
	return nil
}

// rid returns the RID of a primary key.
func (t *Table) rid(key int64) (heap.RID, error) {
	t.mu.RLock()
	v, ok := t.pk.Get(key)
	t.mu.RUnlock()
	if !ok {
		return heap.RID{}, fmt.Errorf("%w: %s key %d", ErrKeyNotFound, t.name, key)
	}
	return heap.Unpack(v), nil
}

// Get returns a copy of the tuple stored under key as of a fresh
// statement snapshot: the latest committed version is returned, a
// concurrent writer's uncommitted bytes are never visible, and no record
// lock is taken.
func (t *Table) Get(key int64) ([]byte, error) { return t.AppendGet(nil, key) }

// AppendGet is Get appending the tuple to dst, which it returns (dst
// unchanged on error): a caller that reuses dst reads without allocating.
func (t *Table) AppendGet(dst []byte, key int64) ([]byte, error) {
	if err := t.db.acquire(); err != nil {
		return dst, err
	}
	defer t.db.release()
	err := t.db.snapshotted(func(snap uint64) (gerr error) {
		dst, gerr = t.getVisible(dst, key, snap, 0)
		return gerr
	})
	return dst, err
}

// secondaryMove is one pending secondary-index entry relocation caused by
// an update that changed the tuple's extracted key.
type secondaryMove struct {
	sec    *SecondaryIndex
	oldKey int64
	newKey int64
}

// secondaryMoves computes which secondary keys an update of old (patching
// data at offset) changes.
func secondaryMoves(secs []*SecondaryIndex, old []byte, offset int, data []byte) []secondaryMove {
	if offset < 0 || offset+len(data) > len(old) {
		return nil // the heap update will reject the range
	}
	var moves []secondaryMove
	var updated []byte
	for _, s := range secs {
		before := s.extract(old)
		if updated == nil {
			updated = append([]byte(nil), old...)
			copy(updated[offset:], data)
		}
		if after := s.extract(updated); after != before {
			moves = append(moves, secondaryMove{sec: s, oldKey: before, newKey: after})
		}
	}
	return moves
}

// Scan calls fn for every tuple in primary-key order until fn returns
// false. The whole scan reads at one statement snapshot — a consistent
// cut: rows committed before the snapshot are all delivered in their
// snapshot-time state, concurrent writers are never half-visible. The
// close gate is taken per row — never across fn — so the callback may
// freely call other table or transaction methods.
func (t *Table) Scan(fn func(key int64, tuple []byte) bool) error {
	return t.scan(nil, fn, func(add func(int64, uint64) bool) { t.pk.Ascend(add) })
}

// ScanRange calls fn for every key in [from, to) until fn returns false.
// Like Scan, the range is read at one statement snapshot and the close
// gate is never held across fn.
func (t *Table) ScanRange(from, to int64, fn func(key int64, tuple []byte) bool) error {
	return t.scan(nil, fn, func(add func(int64, uint64) bool) { t.pk.AscendRange(from, to, add) })
}

// scan is the body of the statement-snapshot reads: under one fresh
// snapshot, collect hands add the index entries to visit while the table
// is read-locked, and scanPairs resolves them with no lock held.
func (t *Table) scan(filter ExtractFunc, fn func(key int64, tuple []byte) bool, collect func(add func(key int64, packed uint64) bool)) error {
	if err := t.db.checkOpen(); err != nil {
		return err
	}
	return t.db.snapshotted(func(snap uint64) error {
		var pairs []scanPair
		t.mu.RLock()
		collect(func(k int64, v uint64) bool {
			pairs = append(pairs, scanPair{key: k, rid: heap.Unpack(v)})
			return true
		})
		t.mu.RUnlock()
		return t.scanPairs(pairs, snap, filter, fn)
	})
}

// scanPair is one index entry captured by a scan's directory snapshot.
type scanPair struct {
	key int64
	rid heap.RID
}

// scanPairs resolves each captured entry at the scan's snapshot (under the
// close gate) and hands the visible rows to fn with no lock held, so fn
// may call back into the table. Entries with no version visible at the
// snapshot — created later or deleted earlier — are skipped. filter, when
// set, re-extracts the secondary key from the resolved bytes and skips rows
// that no longer (or did not yet) belong under the captured key, which
// keeps secondary scans snapshot-consistent across update moves in both
// directions.
func (t *Table) scanPairs(pairs []scanPair, snap uint64, filter ExtractFunc, fn func(key int64, tuple []byte) bool) error {
	for _, p := range pairs {
		if err := t.db.acquire(); err != nil {
			return err
		}
		tuple, ok, err := t.readVersion(nil, p.rid, snap, 0)
		t.db.release()
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if filter != nil && filter(tuple) != p.key {
			continue
		}
		if !fn(p.key, tuple) {
			return nil
		}
	}
	return nil
}
