// Package txn implements transactions with record-level locking for
// writers, WAL-based rollback, and multi-version concurrency control for
// readers: a commit-timestamp Oracle and a VersionCache of superseded
// tuple versions let snapshot reads run without taking a record lock
// while writers keep strict two-phase locking among themselves.
//
// The transaction layer is part of the Shore-MT-like substrate the paper's
// prototype runs on. In-Place Appends is transparent to it: transactions
// update buffered pages in place exactly as before; only the eviction path
// in the storage manager changes. The tests in this package and in the
// engine verify that locking, commit and abort behave identically with and
// without IPA.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ipa/internal/wal"
)

// Errors returned by the transaction manager.
var (
	// ErrConflict is returned when a lock is held by another transaction
	// and the manager is configured not to wait.
	ErrConflict = errors.New("txn: lock conflict")
	// ErrFinished is returned when operating on a committed or aborted
	// transaction.
	ErrFinished = errors.New("txn: transaction already finished")
)

// Status of a transaction.
type Status int

const (
	// Active transactions may acquire locks and log updates.
	Active Status = iota
	// Committed transactions are durable.
	Committed
	// Aborted transactions have been rolled back.
	Aborted
)

// LockKey identifies a lockable record (page, slot).
type LockKey struct {
	PageID uint64
	Slot   uint16
}

// Manager coordinates transactions. Transaction identifiers are handed out
// with an atomic counter, so Begin scales with concurrent transactions. The
// manager also owns the two MVCC singletons — the commit-timestamp Oracle
// and the VersionCache, whose version chains also carry the record locks.
type Manager struct {
	nextID atomic.Uint64
	log    *wal.Log
	oracle *Oracle
	cache  *VersionCache

	// active tracks transactions that have logged at least one record and
	// whose effects are not yet fully applied, by identifier; each carries
	// a conservative lower bound of its first LSN. The fuzzy checkpoint's
	// truncation cut never advances past the oldest entry, so every
	// record recovery could need for undo (or for redo of still-pending
	// physical index retirement) stays in the log.
	activeMu sync.Mutex
	active   map[uint64]*Txn
}

// NewManager creates a transaction manager writing to log.
func NewManager(log *wal.Log) *Manager {
	m := &Manager{log: log, oracle: NewOracle(), active: make(map[uint64]*Txn)}
	m.cache = newVersionCache(m)
	return m
}

// NewManagerAt is NewManager with the identifier counter advanced past
// lastID, so a manager recreated after a crash never reuses a transaction
// identifier that still appears in the surviving log.
func NewManagerAt(log *wal.Log, lastID uint64) *Manager {
	m := NewManager(log)
	m.nextID.Store(lastID)
	return m
}

// LastTxnID returns the highest transaction identifier handed out so far.
func (m *Manager) LastTxnID() uint64 { return m.nextID.Load() }

// Oracle returns the commit-timestamp oracle.
func (m *Manager) Oracle() *Oracle { return m.oracle }

// Versions returns the version cache.
func (m *Manager) Versions() *VersionCache { return m.cache }

// ActiveTxn is one entry of the active-transaction table: a transaction
// with logged records whose effects may still need the log.
type ActiveTxn struct {
	ID       uint64
	FirstLSN uint64 // conservative lower bound of the txn's first record
}

// ActiveTxns returns a snapshot of the active-transaction table. The
// checkpoint records it and uses the minimum FirstLSN to bound the WAL
// truncation cut.
func (m *Manager) ActiveTxns() []ActiveTxn {
	m.activeMu.Lock()
	defer m.activeMu.Unlock()
	out := make([]ActiveTxn, 0, len(m.active))
	for id, t := range m.active {
		out = append(out, ActiveTxn{ID: id, FirstLSN: t.firstLSN})
	}
	return out
}

// Deregister removes a transaction from the active table. The engine
// calls it once the transaction's outcome is durable AND all its physical
// effects (including deferred index entry retirement) have been applied,
// so the log below its first record is no longer needed. Abort
// deregisters itself after its RecAbort record; successful commits are
// deregistered by the caller after index retirement.
func (m *Manager) Deregister(id uint64) {
	m.activeMu.Lock()
	delete(m.active, id)
	m.activeMu.Unlock()
}

// register adds the transaction to the active table before its first
// record is appended. The stored bound is read from the log BEFORE the
// append, so it never exceeds the record's actual LSN: a checkpoint that
// reads its begin-LSN and then the table either sees the transaction or
// none of its records lie below the begin-LSN.
func (t *Txn) register() {
	if t.firstLSN != 0 {
		return
	}
	lb := t.mgr.log.NextLSN()
	t.mgr.activeMu.Lock()
	t.firstLSN = lb
	t.mgr.active[t.id] = t
	t.mgr.activeMu.Unlock()
}

// registered returns the active-table transaction with identifier id, or nil.
func (m *Manager) registered(id uint64) *Txn {
	m.activeMu.Lock()
	defer m.activeMu.Unlock()
	return m.active[id]
}

// Txn is one transaction.
type Txn struct {
	mgr      *Manager
	id       uint64
	status   Status
	commitTS uint64
	firstLSN uint64 // 0 until register: lower bound of the first record's LSN
	// locks holds the packed RIDs whose chains name this transaction as
	// owner: its record locks and, since a write takes the lock, its write
	// set, which the end stamps or rolls back before it lets them all go.
	locks []uint64
	// undo points at the transaction's records as the log stores them, in
	// the WAL's segment arrays and arenas, which a truncation recycles. That
	// is safe only because register puts the transaction in the active
	// table before its first append and the checkpoint keeps its cut below
	// every entry's first LSN until the transaction is deregistered —
	// which Abort does after it has applied the undo, and a commit's
	// caller after it has read them (Logged) for the last time.
	undo []*wal.Record
	// The two sets start on these arrays, so a transaction of a few rows
	// allocates nothing but itself; append moves a set that outgrows its
	// array to the heap.
	lockBuf [4]uint64
	undoBuf [4]*wal.Record
}

// Begin starts a new transaction.
func (m *Manager) Begin() *Txn {
	t := &Txn{mgr: m, id: m.nextID.Add(1)}
	t.locks, t.undo = t.lockBuf[:0], t.undoBuf[:0]
	return t
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// Status returns the transaction status.
func (t *Txn) Status() Status { return t.status }

// Lock acquires an exclusive record lock: key's version chain names the
// transaction as its owner (VersionCache.Lock). Locks are held until commit
// or abort (strict two-phase locking). A conflict with another transaction
// returns ErrConflict; the OLTP drivers retry the transaction.
func (t *Txn) Lock(key LockKey) error {
	if t.status != Active {
		return ErrFinished
	}
	return t.mgr.cache.Lock(key.PageID<<16|uint64(key.Slot), t)
}

// log appends rec to the WAL on the transaction's behalf and remembers the
// stored record for rollback. The log copies the images, so callers pass
// their own buffers straight through.
func (t *Txn) log(rec wal.Record) (uint64, error) {
	if t.status != Active {
		return 0, ErrFinished
	}
	rec.TxnID = t.id
	t.register()
	stored := t.mgr.log.AppendRef(&rec)
	t.undo = append(t.undo, stored)
	return stored.LSN, nil
}

// LogUpdate appends an update record (before and after image) to the WAL
// and remembers it for rollback.
func (t *Txn) LogUpdate(pageID uint64, slot, offset uint16, old, new []byte) (uint64, error) {
	return t.log(wal.Record{Type: wal.RecUpdate, PageID: pageID, Slot: slot, Offset: offset, Old: old, New: new})
}

// LogInsert appends an insert record (with the owning object, so recovery
// can recreate lost pages) to the WAL and remembers it for rollback.
func (t *Txn) LogInsert(objectID uint32, pageID uint64, slot uint16, tuple []byte) (uint64, error) {
	return t.log(wal.Record{Type: wal.RecInsert, PageID: pageID, Slot: slot, ObjectID: objectID, New: tuple})
}

// LogDelete appends a delete record (with the owning object and the full
// before image, so recovery and rollback can restore the tuple) to the WAL
// and remembers it for rollback.
func (t *Txn) LogDelete(objectID uint32, pageID uint64, slot uint16, old []byte) (uint64, error) {
	return t.log(wal.Record{Type: wal.RecDelete, PageID: pageID, Slot: slot, ObjectID: objectID, Old: old})
}

// LogIndexInsert appends a logical index-insertion record: key now maps to
// the packed RID value in the index identified by objectID.
func (t *Txn) LogIndexInsert(objectID uint32, key int64, value uint64) (uint64, error) {
	img := wal.ValueImage(value)
	return t.log(wal.Record{Type: wal.RecIndexInsert, ObjectID: objectID, Key: key, New: img[:]})
}

// LogIndexDelete appends a logical index-deletion record; old is the packed
// RID the key mapped to (the undo image).
func (t *Txn) LogIndexDelete(objectID uint32, key int64, old uint64) (uint64, error) {
	img := wal.ValueImage(old)
	return t.log(wal.Record{Type: wal.RecIndexDelete, ObjectID: objectID, Key: key, Old: img[:]})
}

// Commit allocates a commit timestamp from the oracle, appends the commit
// record carrying it (in the Key field — part of every record's fixed
// header, so the log format is unchanged and the timestamp is durable) and
// makes it durable through the group-commit pipeline in one log call
// (AppendCommit), stamps the transaction's version chains, releases all
// locks and collects what no snapshot needs.
//
// Ordering matters: chains are stamped BEFORE EndCommit retires the
// timestamp and the locks drop only after it, so no snapshot can read at or
// past the new timestamp while any chain still looks uncommitted, and no
// new writer can touch a chain before its timestamp is retired. The release
// drops the chains no snapshot below EndCommit's floor needs and parks the
// rest for GC.
//
// Commit returns only once the oracle's watermark has reached the
// transaction's own timestamp, so a snapshot the caller takes next sees the
// commit (read-your-writes across transactions; over the wire, UPDATE then
// GET on one connection). The watermark is contiguous, so that can mean
// waiting for an earlier timestamp still in flight on another goroutine —
// after the record locks are released, so nobody is held up by the wait.
//
// If the log device fails (power cut during the leader flush) the commit
// record is not durable: the timestamp is retired WITHOUT stamping — the
// chains keep their pending writer forever and readers keep resolving to
// the last committed version — and the transaction is finished as rolled
// back; recovery will undo it.
//
// A transaction that logged no record (it only read, or took locks) has
// nothing to make durable: it commits without a commit record, a log flush
// or a timestamp (CommitTS stays 0), and only lets its locks go.
func (t *Txn) Commit() error {
	if t.status != Active {
		return ErrFinished
	}
	if t.firstLSN == 0 {
		t.status = Committed
		t.releaseLocks()
		return nil
	}
	ts := t.mgr.oracle.BeginCommit()
	if err := t.mgr.log.AppendCommit(wal.Record{TxnID: t.id, Type: wal.RecCommit, Key: int64(ts)}); err != nil {
		t.mgr.oracle.EndCommit(ts)
		t.status = Aborted
		t.releaseLocks()
		return fmt.Errorf("txn: commit flush: %w", err)
	}
	t.mgr.cache.stamp(t, ts)
	t.commitTS = ts
	t.status = Committed
	visible, oldest := t.mgr.oracle.EndCommit(ts)
	if t.mgr.cache.release(t, oldest) {
		// A chain parked behind a snapshot that has let go since EndCommit
		// would have nobody left to collect it.
		oldest = t.mgr.oracle.OldestActive()
	}
	t.mgr.cache.GC(oldest)
	if !visible {
		t.mgr.oracle.WaitVisible(ts)
	}
	return nil
}

// releaseLocks lets go of t's locks at the current floor and, if that
// parked a chain, collects at a fresh one, as Commit does.
func (t *Txn) releaseLocks() {
	if t.mgr.cache.release(t, t.mgr.oracle.OldestActive()) {
		t.mgr.cache.GC(t.mgr.oracle.OldestActive())
	}
}

// CommitTS returns the commit timestamp of a committed transaction
// (0 before Commit succeeds).
func (t *Txn) CommitTS() uint64 { return t.commitTS }

// Logged returns the transaction's records in log order, as the log stores
// them: valid until the transaction is deregistered.
func (t *Txn) Logged() []*wal.Record { return t.undo }

// Abort rolls back the transaction: its records are handed to ap in
// reverse order with wal.Undo — update before images are restored, inserted
// tuples deleted, deleted tuples and index entries restored — then an abort
// record is written and all locks are released. A nil ap skips the rollback
// (the caller has nothing to roll back into).
func (t *Txn) Abort(ap wal.Applier) error {
	if t.status != Active {
		return ErrFinished
	}
	for i := len(t.undo) - 1; i >= 0 && ap != nil; i-- {
		if err := wal.Apply(ap, t.undo[i], wal.Undo); err != nil {
			return fmt.Errorf("txn: rollback: %w", err)
		}
	}
	// The undo above restored the heap slots; now flip the version chains
	// back to their committed state, still under the record locks.
	t.mgr.cache.rollback(t)
	t.mgr.log.Append(wal.Record{TxnID: t.id, Type: wal.RecAbort})
	t.status = Aborted
	// The rollback is fully applied and the abort record is in the log
	// (a checkpoint cut that keeps any of this transaction's records also
	// keeps the RecAbort, because truncation never splits the undurable
	// tail), so the transaction no longer pins the truncation cut.
	t.mgr.Deregister(t.id)
	t.releaseLocks()
	return nil
}

// Detach abandons the transaction without applying undo and without
// writing an abort record: locks are released and the transaction stays a
// loser in the WAL, so recovery rolls its updates back. It is used when
// the before images can no longer be applied in place (e.g. the database
// was closed while the transaction was in flight).
func (t *Txn) Detach() error {
	if t.status != Active {
		return ErrFinished
	}
	// The heap keeps the uncommitted bytes, so the version chains must
	// stay pending: readers keep resolving to the last committed version.
	t.status = Aborted
	t.releaseLocks()
	return nil
}
