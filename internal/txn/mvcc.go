package txn

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ipa/internal/stat"
)

// The version cache gives every record a version chain keyed by its packed
// RID (RIDs are globally unique: page IDs are never reused across tables
// and heap slots of WAL-covered tables are never recycled). The heap slot
// always holds the NEWEST bytes of a record — uncommitted while a writer
// is pending, the latest committed state otherwise — and the chain holds
// the commit-timestamp metadata plus the superseded committed versions
// that older snapshots still need. A record with no chain is in its only
// committed state, timestamp zero (pre-transactional data, or history
// fully reclaimed by GC).
//
// The cache is volatile by design: after a crash all snapshots are dead,
// so recovery conservatively truncates every chain to its newest committed
// version — which is exactly the heap image the WAL redo/undo pass
// produces. Only the commit timestamps themselves are durable (carried in
// the Key field of each RecCommit record) so the oracle can restart past
// them.
//
// A chain is also its record's lock (owner). A lock on a record with no
// history makes a chain that carries nothing else; it goes with the lock.

// ResKind classifies how a snapshot read resolves against a chain.
type ResKind uint8

const (
	// ResHeap: the heap slot's current bytes are the visible version.
	ResHeap ResKind = iota
	// ResData: an older version's bytes (returned inline) are visible.
	ResData
	// ResAbsent: the record does not exist at the snapshot.
	ResAbsent
)

// Resolution is the outcome of VersionCache.Resolve.
type Resolution struct {
	Kind ResKind
	Data []byte // valid when Kind == ResData; owned by the cache, do not modify
}

// version is one superseded committed state of a record.
type version struct {
	ts      uint64 // commit timestamp of this state
	deleted bool   // the record did not exist in this state
	data    []byte
}

// chain is the version metadata of one record. The head fields describe
// the state of the heap slot; olds lists superseded committed versions,
// oldest first (ascending ts), so a push is an append and GC trims a prefix.
type chain struct {
	owner         uint64 // txn holding the record lock; 0 = unlocked
	writer        uint64 // txn holding the heap slot uncommitted; 0 = committed (a detached one stays, unlocked)
	inserted      bool   // writer created the record (no committed state exists)
	pendingDelete bool   // writer's uncommitted change is a delete
	pushed        bool   // writer pushed the newest of olds (false for adopted dead-writer chains)
	headTS        uint64 // commit timestamp of the heap bytes (writer == 0)
	headDeleted   bool   // the committed head state is a delete (zombie)
	olds          []version
	// first is the array olds starts on: the one superseded version most
	// chains ever hold costs no allocation beyond the chain itself.
	first [1]version
}

const versionStripes = 64

// vstripe is one partition of the cache. Chains are touched only under mu
// and a resolution hands out version bytes, never a chain, so a chain that
// leaves chains is reset and kept in spare for the stripe's next record: a
// load commits and collects a chain for every row it inserts.
type vstripe struct {
	mu     sync.Mutex
	seq    atomic.Uint64 // bumped on every chain mutation in this stripe
	chains map[uint64]*chain
	spare  []*chain // reset chains, at most spareChains
}

const spareChains = 16

// newChain returns a reset chain. The caller holds mu.
func (s *vstripe) newChain() (ch *chain) {
	if n := len(s.spare); n > 0 {
		ch, s.spare = s.spare[n-1], s.spare[:n-1]
		return ch
	}
	ch = &chain{}
	ch.olds = ch.first[:0]
	return ch
}

// drop removes rid's chain ch with its whole history from stripe s,
// keeping it as a spare while there is room. The caller holds s.mu.
func (c *VersionCache) drop(s *vstripe, rid uint64, ch *chain) {
	if n := len(ch.olds); n > 0 {
		atomic.AddUint64(&c.stats.VersionsReclaimed, uint64(n))
	}
	atomic.AddUint64(&c.stats.VersionChainsLive, ^uint64(0))
	s.seq.Add(1)
	delete(s.chains, rid)
	if len(s.spare) < spareChains {
		*ch = chain{olds: ch.first[:0]}
		s.spare = append(s.spare, ch)
	}
}

// gcMark parks one chain for trimming, or one index entry MVCC retains
// for older snapshots for dropping (drop set), once no snapshot predates ts.
type gcMark struct {
	ts   uint64
	rid  uint64
	drop func()
}

// VersionCache is the engine-global store of version chains, striped for
// concurrency. A chain is also its record's lock (owner): writers take it
// and mutate the chain under the stripe mutex; readers resolve without it,
// fenced by a per-stripe sequence number (see Resolve/Validate). A stripe
// mutex is a leaf under the page latches: the engine may take one while it
// holds a page latch, never a page latch while it holds one.
type VersionCache struct {
	stripes [versionStripes]vstripe
	mgr     *Manager // finds the transaction behind OnWrite's identifier

	// gcQueue[gcHead:] are the parked marks in ascending ts: commits park
	// in timestamp order give or take the few in flight, so a late mark
	// bubbles back a step or two, the marks ready at a given floor are a
	// prefix, and GC costs O(ready) however many marks an old snapshot
	// keeps parked. Entries before gcHead are spent. gcMu is taken before
	// any stripe mutex, never under one, and GC runs the retained entries'
	// drops under it: gcMu comes before the engine's table mutex too.
	gcMu       sync.Mutex
	gcQueue    []gcMark
	gcHead     int
	gcExamined uint64       // marks GC has compared against its floor (the tests' cost measure)
	parked     atomic.Int64 // len(gcQueue)-gcHead, stored under gcMu, read without it
	retained   atomic.Int64 // the parked marks with a drop

	stats VersionStats
}

// newVersionCache creates the empty cache of mgr's transactions.
func newVersionCache(mgr *Manager) *VersionCache {
	c := &VersionCache{mgr: mgr}
	for i := range c.stripes {
		c.stripes[i].chains = make(map[uint64]*chain)
	}
	return c
}

func (c *VersionCache) stripe(rid uint64) *vstripe {
	// A multiplicative hash of the packed RID: its top bits pick the stripe.
	h := rid * 0x9E3779B97F4A7C15
	return &c.stripes[h>>58&(versionStripes-1)]
}

// lockLocked returns rid's chain, creating it, locked for tx — or the
// conflict if another transaction holds it. The caller holds s.mu.
func (c *VersionCache) lockLocked(s *vstripe, rid uint64, tx *Txn) (*chain, error) {
	ch := s.chains[rid]
	if ch == nil {
		ch = s.newChain()
		s.chains[rid] = ch
		atomic.AddUint64(&c.stats.VersionChainsLive, 1)
	}
	switch ch.owner {
	case tx.id:
	case 0:
		ch.owner = tx.id
		tx.locks = append(tx.locks, rid)
	default:
		return nil, fmt.Errorf("%w: page %d slot %d held by txn %d", ErrConflict, rid>>16, rid&0xFFFF, ch.owner)
	}
	return ch, nil
}

// Lock takes rid's record lock for tx, or returns ErrConflict if another
// transaction holds it; taking a lock tx holds already is a no-op.
func (c *VersionCache) Lock(rid uint64, tx *Txn) error {
	s := c.stripe(rid)
	s.mu.Lock()
	_, err := c.lockLocked(s, rid, tx)
	s.mu.Unlock()
	return err
}

// OnInsert registers a freshly inserted record and locks it for tx: the
// heap slot holds tx's uncommitted bytes and no committed state exists, so
// the record is invisible to every other transaction. rid must be a fresh
// heap slot (never previously used), so nobody else can hold its lock.
func (c *VersionCache) OnInsert(rid uint64, tx *Txn) {
	s := c.stripe(rid)
	s.mu.Lock()
	ch, _ := c.lockLocked(s, rid, tx)
	ch.writer, ch.inserted = tx.id, true
	s.seq.Add(1)
	s.mu.Unlock()
}

// OnWrite registers an update (del=false) or delete (del=true) of a
// committed record by transaction txnID, which must have logged a record
// (OnWrite finds it in the manager's active table, and panics if not):
// prev is the committed tuple image being superseded (the cache keeps its
// own copy). OnWrite takes the record lock (it panics if another
// transaction holds it) and must be called BEFORE the heap slot is
// overwritten or deleted, so readers never see the new bytes attributed to
// the old version.
//
// If the chain still carries a dead writer (a transaction whose commit
// flush failed, or a detached one, leaving its heap bytes uncommitted
// forever), the new writer adopts the chain without pushing a pre-image:
// the newest of olds already holds the last committed state, and prev —
// read from the heap — is the dead writer's residue, not a committed version.
func (c *VersionCache) OnWrite(rid, txnID uint64, prev []byte, del bool) {
	tx := c.mgr.registered(txnID)
	if tx == nil {
		panic("txn: OnWrite by a transaction that has logged nothing")
	}
	if err := c.OnWriteOwned(rid, tx, append([]byte(nil), prev...), del); err != nil {
		panic(err)
	}
}

// OnWriteOwned is OnWrite taking the transaction itself and ownership of
// prev (the slice becomes the superseded version as it is), and returning
// a conflict, which changes nothing, instead of panicking.
func (c *VersionCache) OnWriteOwned(rid uint64, tx *Txn, prev []byte, del bool) error {
	s := c.stripe(rid)
	s.mu.Lock()
	ch, err := c.lockLocked(s, rid, tx)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	// A second write by the same transaction keeps the first write's
	// pre-image as the rollback target; a dead writer's chain is adopted.
	if ch.writer != tx.id {
		if ch.pushed = ch.writer == 0; ch.pushed {
			ch.olds = append(ch.olds, version{ts: ch.headTS, deleted: ch.headDeleted, data: prev})
			atomic.AddUint64(&c.stats.VersionsCreated, 1)
		}
		ch.writer, ch.inserted = tx.id, false
	}
	ch.pendingDelete = del
	s.seq.Add(1)
	s.mu.Unlock()
	return nil
}

// stamp marks every chain tx wrote as committed at ts. Must run after the
// commit record is durable and BEFORE Oracle.EndCommit(ts) — otherwise a
// reader could acquire a snapshot >= ts while the chains still look
// uncommitted — and before release.
func (c *VersionCache) stamp(tx *Txn, ts uint64) {
	for _, rid := range tx.locks {
		s := c.stripe(rid)
		s.mu.Lock()
		if ch := s.chains[rid]; ch != nil && ch.writer == tx.id {
			ch.writer, ch.headTS, ch.headDeleted = 0, ts, ch.pendingDelete
			ch.pendingDelete, ch.inserted, ch.pushed = false, false, false
			s.seq.Add(1)
		}
		s.mu.Unlock()
	}
}

// release lets go of every lock tx holds, once its outcome is settled (its
// chains stamped or rolled back). Every chain it unlocks is dropped or
// parked: a chain no snapshot at or above the floor oldest needs goes, as
// trim drops it, and any other is parked for GC at its own head timestamp
// — GC may have consumed the chain's earlier mark while the lock kept it.
// Only a dead writer's chain stays (see OnWrite). It reports whether it
// parked anything.
func (c *VersionCache) release(tx *Txn, oldest uint64) bool {
	var buf [4]gcMark
	park := buf[:0]
	for _, rid := range tx.locks {
		s := c.stripe(rid)
		s.mu.Lock()
		if ch := s.chains[rid]; ch != nil && ch.owner == tx.id {
			ch.owner = 0
			switch {
			case ch.writer != 0:
			case ch.headTS <= oldest:
				c.drop(s, rid, ch)
			default:
				park = append(park, gcMark{ts: ch.headTS, rid: rid})
			}
		}
		s.mu.Unlock()
	}
	if len(park) == 0 {
		return false
	}
	c.gcMu.Lock() // after the stripes: gcMu comes before a stripe mutex
	for _, m := range park {
		c.parkLocked(m)
	}
	c.parked.Store(int64(len(c.gcQueue) - c.gcHead))
	c.gcMu.Unlock()
	return true
}

// Retain parks drop, the removal of an index entry kept for the snapshots
// older than ts, on the GC queue beside the chain marks. The GC pass that
// finds ts ready runs it before it trims that pass's chains, so the entry
// never outlives the chain that justifies it. drop runs under gcMu and may
// take the engine's table mutex: the caller holds none of its locks.
func (c *VersionCache) Retain(ts uint64, drop func()) {
	c.gcMu.Lock()
	c.parkLocked(gcMark{ts: ts, drop: drop})
	c.retained.Add(1)
	c.parked.Store(int64(len(c.gcQueue) - c.gcHead))
	c.gcMu.Unlock()
}

// parkLocked queues a mark in timestamp order. The caller holds gcMu.
func (c *VersionCache) parkLocked(m gcMark) {
	c.gcQueue = append(c.gcQueue, m)
	for i := len(c.gcQueue) - 1; i > c.gcHead && c.gcQueue[i-1].ts > m.ts; i-- {
		c.gcQueue[i], c.gcQueue[i-1] = c.gcQueue[i-1], c.gcQueue[i]
	}
}

// rollback returns the chains tx wrote to their committed state. The
// caller must restore the heap slots (undo) BEFORE calling rollback and
// must still hold the record locks, so a chain flipping back to "heap is
// committed" always points at restored bytes.
func (c *VersionCache) rollback(tx *Txn) {
	for _, rid := range tx.locks {
		s := c.stripe(rid)
		s.mu.Lock()
		ch := s.chains[rid]
		if ch == nil || ch.writer != tx.id {
			s.mu.Unlock()
			continue
		}
		switch {
		case ch.inserted:
			// The undo removed the inserted tuple; no committed state ever
			// existed, so the whole chain goes, lock and all.
			c.drop(s, rid, ch)
		case ch.pushed:
			// The undo restored the pre-image into the heap slot; pop it
			// back off the chain.
			n := len(ch.olds) - 1
			head := ch.olds[n]
			ch.olds[n] = version{}
			ch.olds = ch.olds[:n]
			ch.writer, ch.headTS, ch.headDeleted = 0, head.ts, head.deleted
			ch.pendingDelete, ch.pushed = false, false
			atomic.AddUint64(&c.stats.VersionsReclaimed, 1)
		default:
			// Adopted dead-writer chain: the heap bytes were never a
			// committed state, so the chain stays pending forever and
			// readers keep resolving to the newest of olds. (Only reachable
			// after a commit-flush failure, which poisons the engine anyway,
			// or a transaction detached by Close.)
		}
		s.seq.Add(1)
		s.mu.Unlock()
	}
}

// Resolve reads the chain of rid at snapshot snap and returns how the
// read resolves plus the stripe sequence observed. self is the reading
// transaction's id (0 for table-level reads): a transaction always sees
// its own uncommitted writes.
//
// When Kind == ResHeap the caller fetches the heap slot WITHOUT holding
// any cache lock and then calls Validate(rid, seq): if the sequence is
// unchanged the chain did not move while the heap was read, so the bytes
// belong to the resolved version. On a sequence change, retry (or fall
// back to a read that resolves under the page's shared latch: every change
// of the heap bytes happens under the exclusive latch, after the chain
// that describes it).
func (c *VersionCache) Resolve(rid, snap, self uint64) (Resolution, uint64) {
	s := c.stripe(rid)
	s.mu.Lock()
	seq := s.seq.Load()
	res := c.resolveLocked(s, rid, snap, self)
	s.mu.Unlock()
	return res, seq
}

func (c *VersionCache) resolveLocked(s *vstripe, rid, snap, self uint64) Resolution {
	atomic.AddUint64(&c.stats.SnapshotReads, 1)
	ch := s.chains[rid]
	if ch == nil {
		// No chain: committed at timestamp zero, visible to any snapshot.
		return Resolution{Kind: ResHeap}
	}
	if self != 0 && ch.writer == self {
		if ch.pendingDelete {
			return Resolution{Kind: ResAbsent}
		}
		return Resolution{Kind: ResHeap}
	}
	if ch.writer == 0 && ch.headTS <= snap {
		if ch.headDeleted {
			return Resolution{Kind: ResAbsent}
		}
		return Resolution{Kind: ResHeap}
	}
	// The heap state is invisible (uncommitted by another txn, or too
	// new): chase the chain for the newest version at or before snap.
	for i := len(ch.olds) - 1; i >= 0; i-- {
		v := &ch.olds[i]
		if v.ts <= snap {
			if v.deleted {
				return Resolution{Kind: ResAbsent}
			}
			atomic.AddUint64(&c.stats.VersionReads, 1)
			return Resolution{Kind: ResData, Data: v.data}
		}
	}
	// Record did not exist at snap (created later, or pending insert).
	return Resolution{Kind: ResAbsent}
}

// Validate reports whether the stripe of rid is unchanged since seq.
func (c *VersionCache) Validate(rid, seq uint64) bool {
	return c.stripe(rid).seq.Load() == seq
}

// CommittedDeleted reports whether rid's latest committed state is a
// delete — i.e. the record is a zombie whose index entries survive only
// for older snapshots. Insert-over-delete uses this to allow overwriting
// such an entry.
func (c *VersionCache) CommittedDeleted(rid uint64) bool {
	s := c.stripe(rid)
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.chains[rid]
	return ch != nil && ch.writer == 0 && ch.headDeleted
}

// HasChain reports whether rid currently has a version chain — integrity
// verification uses it to justify index entries retained for old
// snapshots (a retained entry without a chain is a leak).
func (c *VersionCache) HasChain(rid uint64) bool {
	s := c.stripe(rid)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chains[rid] != nil
}

// GC drops every retained index entry and trims every parked chain whose
// timestamp is invisible to all snapshots older than oldest
// (= Oracle.OldestActive), entries first. Superseded versions at or
// before oldest are dropped, and chains whose newest committed state is
// itself at or before oldest collapse entirely —
// committed-deleted chains vanish (the heap slot is gone; a chainless
// miss reads as absent) and live ones become chainless heap records.
//
// It runs on every commit and snapshot release, so it must cost what it
// reclaims: the queue is in timestamp order, the ready marks are its
// prefix, and a call that finds the first mark still pinned stops there.
func (c *VersionCache) GC(oldest uint64) {
	if c.parked.Load() == 0 {
		return
	}
	c.gcMu.Lock()
	start := c.gcHead
	for c.gcHead < len(c.gcQueue) {
		c.gcExamined++
		if c.gcQueue[c.gcHead].ts > oldest {
			break
		}
		c.gcHead++
	}
	ready := c.gcQueue[start:c.gcHead]
	for _, m := range ready {
		if m.drop != nil {
			m.drop()
			c.retained.Add(-1)
		}
	}
	for _, m := range ready {
		if m.drop == nil {
			c.trim(m.rid, oldest)
		}
	}
	clear(ready) // the drops' closures go with their marks
	// Reuse the array: start over once drained, and shift the live marks
	// down when the spent prefix is the larger half (amortised O(1) a pop).
	if live := len(c.gcQueue) - c.gcHead; live <= c.gcHead {
		copy(c.gcQueue, c.gcQueue[c.gcHead:])
		c.gcQueue, c.gcHead = c.gcQueue[:live], 0
	}
	c.parked.Store(int64(len(c.gcQueue) - c.gcHead))
	c.gcMu.Unlock()
}

// ParkedMarks returns the number of committed chains and retained index
// entries waiting for GC, without taking the GC mutex: 0 means a GC call
// would find nothing.
func (c *VersionCache) ParkedMarks() int { return int(c.parked.Load()) }

// Retained returns the number of index entries parked by Retain and not
// yet dropped.
func (c *VersionCache) Retained() int { return int(c.retained.Load()) }

// trim drops the versions of rid that no snapshot at or after oldest can
// resolve to.
func (c *VersionCache) trim(rid, oldest uint64) {
	s := c.stripe(rid)
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.chains[rid]
	if ch == nil {
		return
	}
	if ch.writer == 0 && ch.headTS <= oldest && ch.owner == 0 {
		// The head itself satisfies every snapshot: the whole history
		// — and for still-live records the chain itself — can go. A
		// locked chain goes when its lock does (release).
		c.drop(s, rid, ch)
		return
	}
	// Keep everything newer than oldest plus the one boundary version a
	// snapshot at exactly `oldest` resolves to.
	newer := sort.Search(len(ch.olds), func(i int) bool { return ch.olds[i].ts > oldest })
	if reclaimed := max(newer-1, 0); reclaimed > 0 {
		// Shift down, staying on the same (possibly inline) array.
		kept := copy(ch.olds, ch.olds[reclaimed:])
		clear(ch.olds[kept:])
		ch.olds = ch.olds[:kept]
		atomic.AddUint64(&c.stats.VersionsReclaimed, uint64(reclaimed))
	}
	s.seq.Add(1)
}

// VersionStats counts the cache's work. The cache's own value is its live
// counter set, bumped atomically.
type VersionStats struct {
	VersionChainsLive uint64 `stat:"gauge"` // records with version metadata
	VersionsCreated   uint64 // superseded committed versions materialized
	VersionsReclaimed uint64 // versions dropped by GC or rollback
	SnapshotReads     uint64 // chain resolutions on behalf of readers
	VersionReads      uint64 // reads served from a superseded version's bytes
}

// Stats returns the current counter values.
func (c *VersionCache) Stats() VersionStats { return stat.Load(&c.stats) }
