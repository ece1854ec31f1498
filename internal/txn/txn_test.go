package txn

import (
	"errors"
	"testing"

	"ipa/internal/wal"
)

// heldLocks returns the number of record locks currently held.
func heldLocks(m *Manager) int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		n += len(s.locks)
		s.mu.Unlock()
	}
	return n
}

// memUndoer applies before images to an in-memory page map.
type memUndoer struct {
	pages map[uint64][]byte
}

func newMemUndoer() *memUndoer { return &memUndoer{pages: make(map[uint64][]byte)} }

func (u *memUndoer) ApplyUpdate(pid uint64, slot uint16, offset uint16, image []byte) error {
	p, ok := u.pages[pid]
	if !ok {
		p = make([]byte, 64)
		u.pages[pid] = p
	}
	copy(p[int(offset):], image)
	return nil
}

func (u *memUndoer) UndoInsert(pid uint64, slot uint16) error {
	delete(u.pages, pid)
	return nil
}

func (u *memUndoer) UndoDelete(objectID uint32, pid uint64, slot uint16, tuple []byte) error {
	p := make([]byte, 64)
	copy(p, tuple)
	u.pages[pid] = p
	return nil
}

func (u *memUndoer) UndoIndexInsert(objectID uint32, key int64, value uint64) error { return nil }

func (u *memUndoer) UndoIndexDelete(objectID uint32, key int64, value uint64) error { return nil }

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
	u := newMemUndoer()
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
