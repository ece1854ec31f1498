package ipa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"ipa/internal/btree"
	"ipa/internal/core"
	"ipa/internal/heap"
	"ipa/internal/index"
)

// ErrIndexNotFound is returned when a named secondary index does not exist.
var ErrIndexNotFound = errors.New("ipa: secondary index not found")

// ErrIndexExists is returned when creating a secondary index whose name is
// taken on its table.
var ErrIndexExists = errors.New("ipa: secondary index already exists")

// ExtractFunc derives the secondary key of a tuple. It must be a pure
// function of the tuple bytes: the engine re-extracts keys during update
// maintenance, integrity verification and crash recovery, and all call
// sites must agree.
type ExtractFunc func(tuple []byte) int64

// Int64Field returns an ExtractFunc reading a little-endian int64 at the
// given tuple-relative offset — the common secondary-key shape of the
// benchmark schemas (TATP sub_nbr, LinkBench id2). An offset outside the
// tuple extracts key 0 for every row; callers that know the tuple size
// should validate the offset up front (the server's CINDEX does).
func Int64Field(offset int) ExtractFunc {
	return func(tuple []byte) int64 {
		if offset < 0 || offset+8 > len(tuple) {
			return 0
		}
		return int64(binary.LittleEndian.Uint64(tuple[offset:]))
	}
}

// SecondaryIndex is a transactional, persistent, non-unique secondary
// index over one table: every live tuple owns one 16-byte entry
// (extracted key, packed RID) in the index's own entry pages, which
// belong to a dedicated `<table>.<index>` NoFTL region (KindIndex) and
// reach Flash as delta appends through the same storage→FTL→device paths
// as the primary key. The sorted key directory is volatile (derivable)
// and is rebuilt from the entry pages plus the write-ahead log on Reopen,
// exactly like the primary-key B-tree — never by scanning the heap.
//
// Maintenance is fully logged: Tx.Insert, Tx.Delete and Tx.UpdateAt
// ripple into every secondary index via logical RecIndexInsert /
// RecIndexDelete records (carrying the index object id, key and RID), so
// rollback and crash recovery reverse or replay it together with the
// tuple change. Transactional removals split the two halves of the index:
// the persistent entry goes immediately (recovery sees the removal), but
// the volatile pair is retained until no snapshot predates the removal's
// commit — snapshot readers route through the retained pair into the
// version cache and re-extract the key from the version they resolve, so
// older snapshots keep finding the tuple under its old key. See
// docs/DESIGN_MVCC.md.
type SecondaryIndex struct {
	table   *Table
	name    string
	id      uint32
	extract ExtractFunc
	file    *index.Secondary

	// Volatile search structure, guarded by table.mu like the pk B-tree:
	// keys is the sorted set of the directory's secondary keys (the stored
	// value is unused), rids the RID set per key. A RID maps to 0 while its
	// pair is live, and to the retiring commit's timestamp while the pair
	// is retained only because a snapshot older than that commit may still
	// resolve through it. A re-add makes the pair live again (0); the
	// zombie GC drops exactly the pairs that still carry its timestamp.
	keys *btree.Tree
	rids map[int64]map[uint64]uint64
}

// Name returns the index name (unique per table).
func (s *SecondaryIndex) Name() string { return s.name }

// ID returns the index's object identifier.
func (s *SecondaryIndex) ID() uint32 { return s.id }

// Table returns the indexed table.
func (s *SecondaryIndex) Table() *Table { return s.table }

// Pages returns the number of persistent entry pages of the index.
func (s *SecondaryIndex) Pages() int {
	s.table.mu.RLock()
	defer s.table.mu.RUnlock()
	return s.file.Pages()
}

// Len returns the number of live (key, RID) entries.
func (s *SecondaryIndex) Len() int {
	pairs, _ := s.live()
	return pairs
}

// Keys returns the number of distinct live secondary keys: the keys that
// hold a live entry. A key whose only pairs are retained for older
// snapshots does not count.
func (s *SecondaryIndex) Keys() int {
	_, keys := s.live()
	return keys
}

// live counts the live pairs and the keys that hold one.
func (s *SecondaryIndex) live() (pairs, keys int) {
	s.table.mu.RLock()
	defer s.table.mu.RUnlock()
	for _, set := range s.rids {
		n := 0
		for _, retired := range set {
			if retired == 0 {
				n++
			}
		}
		pairs += n
		if n > 0 {
			keys++
		}
	}
	return pairs, keys
}

// noteLocked records the (key, value) pair in the volatile structures
// only (used when priming from recovered entry pages). Caller holds
// table.mu. Idempotent. A pair previously retained as historical becomes
// live again.
func (s *SecondaryIndex) noteLocked(key int64, value uint64) {
	set := s.rids[key]
	if set == nil {
		set = make(map[uint64]uint64)
		s.rids[key] = set
		s.keys.Insert(key, 0)
	}
	set[value] = 0
}

// addLocked inserts the (key, value) pair into the persistent entry file
// and the volatile directory. Caller holds table.mu. Idempotent, so WAL
// redo can replay it.
func (s *SecondaryIndex) addLocked(key int64, value uint64) error {
	if err := s.file.Add(key, value); err != nil {
		return err
	}
	s.noteLocked(key, value)
	return nil
}

// removeLocked deletes the (key, value) pair from both structures.
// Caller holds table.mu. Removing an absent pair is a no-op.
func (s *SecondaryIndex) removeLocked(key int64, value uint64) error {
	if err := s.file.Remove(key, value); err != nil {
		return err
	}
	s.dropVolatileLocked(key, value)
	return nil
}

// dropVolatileLocked removes the (key, value) pair from the volatile
// directory only. Caller holds table.mu. Dropping an absent pair is a
// no-op.
func (s *SecondaryIndex) dropVolatileLocked(key int64, value uint64) {
	if set := s.rids[key]; set != nil {
		delete(set, value)
		if len(set) == 0 {
			delete(s.rids, key)
			s.keys.Delete(key)
		}
	}
}

// ridsLocked hands add the pairs of key, live and retained, in RID order,
// until add returns false, and reports whether it did not. Caller holds
// table.mu.
func (s *SecondaryIndex) ridsLocked(key int64, add func(key int64, packed uint64) bool) bool {
	set := s.rids[key]
	packed := make([]uint64, 0, len(set))
	for v := range set {
		packed = append(packed, v)
	}
	slices.Sort(packed)
	for _, v := range packed {
		if !add(key, v) {
			return false
		}
	}
	return true
}

// CreateSecondaryIndex builds a transactional, persistent secondary index
// named name over the table, extracting each tuple's secondary key with
// extract. The index gets its own `<table>.<name>` NoFTL region running
// the Config.IndexScheme (falling back to the table's scheme), so its
// entry pages are delta-append candidates independent of the heap.
//
// Existing rows are backfilled by one heap scan. The backfilled entries
// are the one index write not covered by the write-ahead log — create
// indexes before loading data (all maintenance is then transactional and
// logged), or call FlushAll afterwards to persist the backfill.
//
// CreateSecondaryIndex is a DDL operation: it must not run concurrently
// with writes to the table. A transaction updating a tuple while the
// backfill scans could have captured its index snapshot before this
// index existed, leaving the backfilled entry stale.
func (t *Table) CreateSecondaryIndex(name string, extract ExtractFunc) (*SecondaryIndex, error) {
	if name == "" || name == "pk" {
		return nil, fmt.Errorf("ipa: invalid secondary index name %q", name)
	}
	if extract == nil {
		return nil, fmt.Errorf("ipa: secondary index %q needs an extract function", name)
	}
	if err := t.db.acquire(); err != nil {
		return nil, err
	}
	defer t.db.release()

	db := t.db
	db.mu.Lock()
	if _, dup := db.secondaryByName[t.name+"."+name]; dup {
		db.mu.Unlock()
		return nil, fmt.Errorf("%w: %q on table %q", ErrIndexExists, name, t.name)
	}
	idxScheme := db.cfg.IndexScheme.internal()
	if !idxScheme.Enabled() {
		idxScheme = db.regions.For(t.id).Scheme
	}
	if db.cfg.WriteMode == Traditional {
		idxScheme = core.Disabled
	}
	s := db.registerSecondaryLocked(t, name, db.nextObjID, idxScheme, extract)
	db.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	// The index joins the catalog before the backfill: if the backfill
	// fails part-way (an injected power cut, a full device), entry pages
	// it already pushed to Flash must stay owned by a known object so
	// integrity checks and crash adoption keep working — the failure then
	// surfaces loudly as an incomplete index (VerifyIntegrity reports the
	// missing entries), not as orphaned pages.
	t.secondaries = append(t.secondaries, s)
	// Backfill from the live heap tuples (empty for indexes created
	// before the load phase, the recommended order).
	var backfillErr error
	err := t.heap.Scan(func(rid heap.RID, tuple []byte) bool {
		if backfillErr = s.addLocked(extract(tuple), rid.Pack()); backfillErr != nil {
			return false
		}
		return true
	})
	if err == nil {
		err = backfillErr
	}
	if err != nil {
		return nil, fmt.Errorf("ipa: backfill secondary index %q: %w", name, err)
	}
	return s, nil
}

// newSecondaryIndex constructs the in-memory object (no backfill, no
// registration).
func newSecondaryIndex(t *Table, name string, id uint32, extract ExtractFunc) *SecondaryIndex {
	return &SecondaryIndex{
		table:   t,
		name:    name,
		id:      id,
		extract: extract,
		file:    index.NewSecondary(t.db.store, t.db.pool, id),
		keys:    btree.New(),
		rids:    make(map[int64]map[uint64]uint64),
	}
}

// SecondaryIndex returns the named secondary index of the table.
func (t *Table) SecondaryIndex(name string) (*SecondaryIndex, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, s := range t.secondaries {
		if s.name == name {
			return s, true
		}
	}
	return nil, false
}

// SecondaryIndexes returns the names of the table's secondary indexes in
// creation order.
func (t *Table) SecondaryIndexes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, len(t.secondaries))
	for i, s := range t.secondaries {
		out[i] = s.name
	}
	return out
}

// GetBySecondary returns copies of every tuple whose extracted key equals
// key in the named secondary index, in RID order, as of one statement
// snapshot — no record locks, uncommitted changes never visible. Each
// candidate's secondary key is re-extracted from the version actually
// resolved, so a concurrent update moving a tuple between keys is seen on
// exactly one side of the move. A key with no entries yields an empty
// result, not an error.
func (t *Table) GetBySecondary(indexName string, key int64) ([][]byte, error) {
	var out [][]byte
	err := t.scanSecondary(indexName, func(_ int64, tuple []byte) bool {
		out = append(out, tuple)
		return true
	}, func(s *SecondaryIndex, add func(int64, uint64) bool) { s.ridsLocked(key, add) })
	return out, err
}

// ScanSecondary calls fn for every (secondary key, tuple) with a key in
// [from, to), keys ascending (RID order within one key), until fn returns
// false. Like ScanRange, the whole scan reads at one statement snapshot
// (with per-row key re-extraction, see GetBySecondary) and the close gate
// is never held across fn.
func (t *Table) ScanSecondary(indexName string, from, to int64, fn func(key int64, tuple []byte) bool) error {
	return t.scanSecondary(indexName, fn, func(s *SecondaryIndex, add func(int64, uint64) bool) {
		s.keys.AscendRange(from, to, func(k int64, _ uint64) bool { return s.ridsLocked(k, add) })
	})
}

// scanSecondary is scan over the named secondary index: collect hands the
// index's pairs to add, and every row is re-extracted against its pair's
// key.
func (t *Table) scanSecondary(indexName string, fn func(key int64, tuple []byte) bool, collect func(s *SecondaryIndex, add func(int64, uint64) bool)) error {
	s, ok := t.SecondaryIndex(indexName)
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrIndexNotFound, t.name, indexName)
	}
	return t.scan(s.extract, fn, func(add func(int64, uint64) bool) { collect(s, add) })
}
