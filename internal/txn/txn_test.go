package txn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ipa/internal/wal"
)

// heldLocks returns the number of record locks currently held: chains
// with an owner.
func heldLocks(m *Manager) int {
	n := 0
	for i := range m.cache.stripes {
		s := &m.cache.stripes[i]
		s.mu.Lock()
		for _, ch := range s.chains {
			if ch.owner != 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// memApplier rolls records back on an in-memory page map.
type memApplier struct {
	pages map[uint64][]byte
}

func newMemApplier() *memApplier { return &memApplier{pages: make(map[uint64][]byte)} }

func (u *memApplier) Apply(r *wal.Record, a wal.Action) error {
	if a != wal.Undo {
		return fmt.Errorf("Abort asked for %s", a)
	}
	switch r.Type {
	case wal.RecInsert:
		delete(u.pages, r.PageID)
	case wal.RecUpdate, wal.RecDelete:
		p, ok := u.pages[r.PageID]
		if !ok || r.Type == wal.RecDelete {
			p = make([]byte, 64)
			u.pages[r.PageID] = p
		}
		copy(p[r.Offset:], r.Old)
	}
	return nil
}

func TestBeginAssignsUniqueIDs(t *testing.T) {
	m := NewManager(wal.New())
	t1 := m.Begin()
	t2 := m.Begin()
	if t1.ID() == t2.ID() {
		t.Fatalf("transaction ids must be unique")
	}
	if t1.Status() != Active {
		t.Fatalf("new transaction must be active")
	}
}

func TestLockConflictAndRelease(t *testing.T) {
	m := NewManager(wal.New())
	t1 := m.Begin()
	t2 := m.Begin()
	key := LockKey{PageID: 1, Slot: 2}
	if err := t1.Lock(key); err != nil {
		t.Fatalf("first lock: %v", err)
	}
	// Re-acquiring the same lock in the same transaction is fine.
	if err := t1.Lock(key); err != nil {
		t.Fatalf("re-entrant lock: %v", err)
	}
	if err := t2.Lock(key); !errors.Is(err, ErrConflict) {
		t.Fatalf("expected ErrConflict, got %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if heldLocks(m) != 0 {
		t.Fatalf("locks must be released on commit")
	}
	if err := t2.Lock(key); err != nil {
		t.Fatalf("lock after release: %v", err)
	}
}

func TestCommitWritesAndFlushesLog(t *testing.T) {
	log := wal.New()
	m := NewManager(log)
	tx := m.Begin()
	if _, err := tx.LogUpdate(5, 0, 8, []byte{1}, []byte{2}); err != nil {
		t.Fatalf("LogUpdate: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if tx.Status() != Committed {
		t.Fatalf("status = %v", tx.Status())
	}
	if log.BytesWritten() == 0 {
		t.Fatalf("commit must flush the log")
	}
	a := log.Analyze()
	if !a.Committed[tx.ID()] {
		t.Fatalf("commit record missing")
	}
	// Operations after commit fail.
	if err := tx.Commit(); !errors.Is(err, ErrFinished) {
		t.Fatalf("double commit must fail")
	}
	if _, err := tx.LogUpdate(5, 0, 8, []byte{1}, []byte{2}); !errors.Is(err, ErrFinished) {
		t.Fatalf("logging after commit must fail")
	}
	if err := tx.Lock(LockKey{}); !errors.Is(err, ErrFinished) {
		t.Fatalf("locking after commit must fail")
	}
}

func TestAbortRollsBackInReverseOrder(t *testing.T) {
	log := wal.New()
	m := NewManager(log)
	u := newMemApplier()
	// Simulate the forward updates.
	u.pages[1] = make([]byte, 64)
	tx := m.Begin()
	if err := tx.Lock(LockKey{PageID: 1, Slot: 0}); err != nil {
		t.Fatalf("Lock: %v", err)
	}
	// Two updates of the same byte: offset 0 goes 0 -> 1 -> 2.
	if _, err := tx.LogUpdate(1, 0, 0, []byte{0}, []byte{1}); err != nil {
		t.Fatalf("LogUpdate: %v", err)
	}
	u.pages[1][0] = 1
	if _, err := tx.LogUpdate(1, 0, 0, []byte{1}, []byte{2}); err != nil {
		t.Fatalf("LogUpdate: %v", err)
	}
	u.pages[1][0] = 2
	if err := tx.Abort(u); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if u.pages[1][0] != 0 {
		t.Fatalf("rollback must restore the oldest before image, got %d", u.pages[1][0])
	}
	if tx.Status() != Aborted {
		t.Fatalf("status = %v", tx.Status())
	}
	if heldLocks(m) != 0 {
		t.Fatalf("locks must be released on abort")
	}
	a := log.Analyze()
	if !a.Aborted[tx.ID()] {
		t.Fatalf("abort record missing")
	}
}

func TestLogInsert(t *testing.T) {
	log := wal.New()
	m := NewManager(log)
	tx := m.Begin()
	if _, err := tx.LogInsert(7, 3, 1, []byte{1, 2, 3}); err != nil {
		t.Fatalf("LogInsert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	recs := log.Records()
	if len(recs) != 2 || recs[0].Type != wal.RecInsert {
		t.Fatalf("unexpected log records: %+v", recs)
	}
}

func TestAbortWithoutUndoer(t *testing.T) {
	m := NewManager(wal.New())
	tx := m.Begin()
	if _, err := tx.LogUpdate(1, 0, 0, []byte{0}, []byte{1}); err != nil {
		t.Fatalf("LogUpdate: %v", err)
	}
	if err := tx.Abort(nil); err != nil {
		t.Fatalf("Abort with nil undoer must still succeed: %v", err)
	}
}

// TestAbortAfterCheckpointsRecycledTheLogAroundIt: a transaction's undo
// list holds the log's own records, whose images live in segment arenas
// that truncation recycles. They stay readable because the transaction is
// in the active table from before its first append until Abort has applied
// them, and a checkpoint keeps its cut below every entry — so the test
// truncates exactly as a checkpoint does, again and again, while a
// transaction with more undo records than its inline array holds (spread
// over many sealed segments) is still open, lets other transactions refill
// whatever was recycled, and then aborts: every byte must come back.
func TestAbortAfterCheckpointsRecycledTheLogAroundIt(t *testing.T) {
	log := wal.New()
	log.SetSegmentBytes(256)
	m := NewManager(log)
	checkpoint := func() {
		cut := log.NextLSN() - 1
		for _, a := range m.ActiveTxns() {
			if a.FirstLSN-1 < cut {
				cut = a.FirstLSN - 1
			}
		}
		if err := log.Flush(0); err != nil {
			t.Fatal(err)
		}
		log.Truncate(cut)
	}
	// filler commits a transaction of its own whose images would overwrite
	// a recycled arena, and leaves the active table as ipa.Tx.Commit does.
	filler := func() {
		tx := m.Begin()
		for i := 0; i < 8; i++ {
			if _, err := tx.LogUpdate(99, 0, 0, bytes.Repeat([]byte{0xEE}, 24), bytes.Repeat([]byte{0xDD}, 24)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		m.Deregister(tx.ID())
	}

	for i := 0; i < 4; i++ { // history below the transaction, to be truncated
		filler()
	}
	const updates = 40
	u := newMemApplier()
	u.pages[1] = make([]byte, 64)
	want := append([]byte(nil), u.pages[1]...)
	tx := m.Begin()
	for i := 0; i < updates; i++ {
		off := uint16(i % 60)
		old := append([]byte(nil), u.pages[1][off:off+4]...)
		img := []byte{byte(i + 1), byte(i + 2), byte(i + 3), byte(i + 4)}
		if _, err := tx.LogUpdate(1, 0, off, old, img); err != nil {
			t.Fatal(err)
		}
		copy(u.pages[1][off:], img)
		copy(old, "junk") // the log keeps its own copy of both images
		copy(img, "junk")
		if i%5 == 4 {
			filler()
			checkpoint()
		}
	}
	if len(tx.undo) != updates || cap(tx.undoBuf) >= updates {
		t.Fatalf("%d undo records over an inline array of %d: the overflow path is not under test", len(tx.undo), cap(tx.undoBuf))
	}
	if log.TruncatedLSN() == 0 || log.TruncatedLSN() >= tx.undo[0].LSN {
		t.Fatalf("truncated up to %d, transaction starts at %d: want history recycled, the transaction's records kept",
			log.TruncatedLSN(), tx.undo[0].LSN)
	}
	if log.Segments() < 4 {
		t.Fatalf("the open transaction spans %d segments, want several", log.Segments())
	}
	if err := tx.Abort(u); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(u.pages[1], want) {
		t.Fatalf("rollback restored\n%x, want\n%x", u.pages[1], want)
	}
	// With the transaction gone the cut moves past it.
	checkpoint()
	if log.TruncatedLSN() < tx.undo[updates-1].LSN {
		t.Fatalf("cut still at %d after the abort, below the transaction's last record %d", log.TruncatedLSN(), tx.undo[updates-1].LSN)
	}
}

// TestSmallTransactionAllocatesOnlyItself pins the inline lock and undo
// sets and the inline write set: begin, lock, log, version, commit of one
// row costs the Txn, the chain and OnWrite's copy of the pre-image.
func TestSmallTransactionAllocatesOnlyItself(t *testing.T) {
	log := wal.New()
	m := NewManager(log)
	pre, img := make([]byte, 120), make([]byte, 8)
	i := 0
	one := func() {
		i++
		key := LockKey{PageID: uint64(i % 64), Slot: uint16(i % 59)}
		tx := m.Begin()
		if err := tx.Lock(key); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.LogUpdate(key.PageID, key.Slot, 112, pre[112:], img); err != nil {
			t.Fatal(err)
		}
		m.Versions().OnWrite(key.PageID<<16|uint64(key.Slot), tx.ID(), pre, false)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		m.Deregister(tx.ID())
		if i%256 == 0 {
			log.Truncate(log.FlushedLSN())
		}
	}
	for n := 0; n < 4096; n++ { // maps, segments and the GC queue reach their working size
		one()
	}
	if allocs := testing.AllocsPerRun(1000, one); allocs > 3 {
		t.Fatalf("a one-row transaction allocates %.1f times, want at most 3", allocs)
	}
}

// TestProbeCommitLoopCollectsEveryChain runs the benchmark's txn.commit_ns
// probe loop, which names the writer to OnWrite by identifier: OnWrite must
// enroll the write in that transaction's write set, or its commit stamps
// nothing, GC never sees the chain, and every chain stays pending.
func TestProbeCommitLoopCollectsEveryChain(t *testing.T) {
	const rounds, tupleSize, patchOff = 2048, 120, 112
	log := wal.New()
	m := NewManager(log)
	versions := m.Versions()
	img, zero, patch := make([]byte, tupleSize), make([]byte, 8), bytes.Repeat([]byte{0x5a}, 8)
	for i := 0; i < rounds; i++ {
		tx := m.Begin()
		key := LockKey{PageID: uint64(i % 64), Slot: uint16(i % 59)}
		if err := tx.Lock(key); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.LogUpdate(key.PageID, key.Slot, patchOff, zero, patch); err != nil {
			t.Fatal(err)
		}
		versions.OnWrite(key.PageID<<16|uint64(key.Slot), tx.ID(), img[:tupleSize], false)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if i%1024 == 1023 {
			log.Truncate(log.FlushedLSN())
		}
	}
	st := versions.Stats()
	if st.VersionChainsLive != 0 || st.VersionsCreated != rounds || st.VersionsReclaimed != st.VersionsCreated {
		t.Fatalf("after %d probe commits: %+v, want every chain stamped and collected", rounds, st)
	}
}
