package txn

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"ipa/internal/wal"
)

func TestOracleWatermarkAdvancesContiguously(t *testing.T) {
	o := NewOracle()
	t1 := o.BeginCommit()
	t2 := o.BeginCommit()
	t3 := o.BeginCommit()
	if t1 != 1 || t2 != 2 || t3 != 3 {
		t.Fatalf("timestamps = %d,%d,%d, want 1,2,3", t1, t2, t3)
	}
	// Finishing out of order must not expose t3 before t1 retires: a
	// snapshot acquired now would otherwise miss t1's still-pending writes.
	o.EndCommit(t3)
	if w := o.Watermark(); w != 0 {
		t.Fatalf("watermark = %d with ts 1,2 pending, want 0", w)
	}
	o.EndCommit(t1)
	if w := o.Watermark(); w != 1 {
		t.Fatalf("watermark = %d after ts 1 retired, want 1", w)
	}
	o.EndCommit(t2)
	if w := o.Watermark(); w != 3 {
		t.Fatalf("watermark = %d after all retired, want 3", w)
	}
}

func TestOracleSnapshotsPinHistory(t *testing.T) {
	o := NewOracle()
	o.EndCommit(o.BeginCommit()) // ts 1
	s1 := o.AcquireSnapshot()
	if s1 != 1 {
		t.Fatalf("snapshot = %d, want 1", s1)
	}
	o.EndCommit(o.BeginCommit()) // ts 2
	s2 := o.AcquireSnapshot()
	if s2 != 2 {
		t.Fatalf("snapshot = %d, want 2", s2)
	}
	if got := o.OldestActive(); got != 1 {
		t.Fatalf("OldestActive = %d, want 1", got)
	}
	if o.NoActiveBefore(2) {
		t.Fatalf("NoActiveBefore(2) with snapshot 1 active")
	}
	if age := o.SnapshotAge(); age != 1 {
		t.Fatalf("SnapshotAge = %d, want 1", age)
	}
	o.ReleaseSnapshot(s1)
	if got := o.OldestActive(); got != 2 {
		t.Fatalf("OldestActive = %d after release, want 2", got)
	}
	if !o.NoActiveBefore(2) {
		t.Fatalf("NoActiveBefore(2) must hold once snapshot 1 is gone")
	}
	o.ReleaseSnapshot(s2)
	if got, n := o.OldestActive(), o.ActiveSnapshots(); got != 2 || n != 0 {
		t.Fatalf("idle oracle: OldestActive=%d active=%d, want 2,0", got, n)
	}
}

func TestOracleStartAt(t *testing.T) {
	o := NewOracle()
	o.StartAt(41)
	if w := o.Watermark(); w != 41 {
		t.Fatalf("watermark = %d after StartAt(41), want 41", w)
	}
	if ts := o.BeginCommit(); ts != 42 {
		t.Fatalf("first timestamp after restart = %d, want 42", ts)
	}
}

// newCache returns a fresh manager's version cache: the tests drive it
// through transactions of that manager, as the engine does.
func newCache() (*Manager, *VersionCache) {
	m := NewManager(wal.New())
	return m, m.Versions()
}

// write is OnWrite on behalf of a transaction the test holds: prev is
// copied, as OnWrite copies it.
func write(c *VersionCache, rid uint64, tx *Txn, prev []byte, del bool) {
	if err := c.OnWriteOwned(rid, tx, append([]byte(nil), prev...), del); err != nil {
		panic(err)
	}
}

// commit does to tx's chains what Txn.Commit does at ts with a snapshot
// below every timestamp: stamp them, then release the locks, parking every
// chain for GC.
func commit(c *VersionCache, tx *Txn, ts uint64) {
	c.stamp(tx, ts)
	c.release(tx, 0)
}

// abort does to tx's chains what Txn.Abort does once the undo has run.
func abort(c *VersionCache, tx *Txn) {
	c.rollback(tx)
	c.release(tx, 0)
}

func TestVersionCacheResolveMatrix(t *testing.T) {
	m, c := newCache()
	const rid = 7
	reader := m.Begin().ID()

	// No chain: any snapshot reads the heap.
	if res, _ := c.Resolve(rid, 0, reader); res.Kind != ResHeap {
		t.Fatalf("chainless resolve = %v, want ResHeap", res.Kind)
	}

	// Uncommitted insert: visible only to the writer.
	writer := m.Begin()
	c.OnInsert(rid, writer)
	if res, _ := c.Resolve(rid, 99, reader); res.Kind != ResAbsent {
		t.Fatalf("pending insert visible to another txn: %v", res.Kind)
	}
	if res, _ := c.Resolve(rid, 0, writer.ID()); res.Kind != ResHeap {
		t.Fatalf("pending insert invisible to its writer: %v", res.Kind)
	}
	commit(c, writer, 5)

	// Committed at 5: snapshots before 5 miss it, later ones read the heap.
	if res, _ := c.Resolve(rid, 4, reader); res.Kind != ResAbsent {
		t.Fatalf("snapshot 4 sees insert committed at 5: %v", res.Kind)
	}
	if res, _ := c.Resolve(rid, 5, reader); res.Kind != ResHeap {
		t.Fatalf("snapshot 5 misses insert committed at 5: %v", res.Kind)
	}

	// Pending update: other snapshots read the pushed pre-image.
	old := []byte("v1")
	writer = m.Begin()
	write(c, rid, writer, old, false)
	res, _ := c.Resolve(rid, 9, reader)
	if res.Kind != ResData || !bytes.Equal(res.Data, old) {
		t.Fatalf("snapshot read during pending update = %v %q, want pre-image", res.Kind, res.Data)
	}
	if res, _ := c.Resolve(rid, 9, writer.ID()); res.Kind != ResHeap {
		t.Fatalf("writer must see its own update: %v", res.Kind)
	}
	commit(c, writer, 9)

	// Committed update: old snapshots keep the superseded version.
	if res, _ := c.Resolve(rid, 8, reader); res.Kind != ResData || !bytes.Equal(res.Data, old) {
		t.Fatalf("snapshot 8 after commit at 9 = %v %q, want v1", res.Kind, res.Data)
	}
	if res, _ := c.Resolve(rid, 9, reader); res.Kind != ResHeap {
		t.Fatalf("snapshot 9 after commit at 9 = %v, want ResHeap", res.Kind)
	}

	// Committed delete: new snapshots see absent, old ones the last value.
	writer = m.Begin()
	write(c, rid, writer, []byte("v2"), true)
	commit(c, writer, 12)
	if res, _ := c.Resolve(rid, 12, reader); res.Kind != ResAbsent {
		t.Fatalf("snapshot 12 sees deleted record: %v", res.Kind)
	}
	if res, _ := c.Resolve(rid, 11, reader); res.Kind != ResData || string(res.Data) != "v2" {
		t.Fatalf("snapshot 11 after delete at 12 = %v %q, want v2", res.Kind, res.Data)
	}
	if !c.CommittedDeleted(rid) {
		t.Fatalf("committed delete must read as zombie")
	}
}

func TestVersionCacheAbortRestoresHead(t *testing.T) {
	m, c := newCache()
	const rid = 3
	writer := m.Begin()
	c.OnInsert(rid, writer)
	commit(c, writer, 1)

	writer = m.Begin()
	write(c, rid, writer, []byte("committed"), false)
	abort(c, writer)
	if res, _ := c.Resolve(rid, 1, 0); res.Kind != ResHeap {
		t.Fatalf("aborted update left chain pending: %v", res.Kind)
	}
	if got := c.Stats().VersionsReclaimed; got != 1 {
		t.Fatalf("VersionsReclaimed = %d after abort, want 1", got)
	}

	// Aborted insert on a fresh rid: the whole chain disappears.
	writer = m.Begin()
	c.OnInsert(4, writer)
	before := c.Stats().VersionChainsLive
	abort(c, writer)
	if got := c.Stats().VersionChainsLive; got != before-1 {
		t.Fatalf("VersionChainsLive = %d after aborted insert, want %d", got, before-1)
	}
}

func TestVersionCacheGCTrims(t *testing.T) {
	m, c := newCache()
	const rid = 9
	writer := m.Begin()
	c.OnInsert(rid, writer)
	commit(c, writer, 1)
	for i, ts := range []uint64{3, 5, 7} {
		writer = m.Begin()
		write(c, rid, writer, []byte{byte(i)}, false)
		commit(c, writer, ts)
	}
	// Three superseded versions (ts 1, 3, 5). A snapshot at 4 needs the
	// boundary version at 3; GC(4) may only reclaim ts 1.
	c.GC(4)
	if res, _ := c.Resolve(rid, 4, 0); res.Kind != ResData || res.Data[0] != 1 {
		t.Fatalf("snapshot 4 after GC(4) = %v, want version committed at 3", res.Kind)
	}
	if got := c.Stats().VersionsReclaimed; got != 1 {
		t.Fatalf("VersionsReclaimed = %d after GC(4), want 1 (only ts 1)", got)
	}
	// No snapshot predates the head: the chain collapses entirely.
	c.GC(7)
	if got := c.Stats().VersionChainsLive; got != 0 {
		t.Fatalf("VersionChainsLive = %d after full GC, want 0", got)
	}
	if res, _ := c.Resolve(rid, 7, 0); res.Kind != ResHeap {
		t.Fatalf("chainless record after GC = %v, want ResHeap", res.Kind)
	}
}

// TestCommitCarriesTimestamp checks the txn-manager integration: a commit
// allocates an oracle timestamp, stamps it into the WAL commit record and
// flips the written chains to committed.
func TestCommitCarriesTimestamp(t *testing.T) {
	log := wal.New()
	m := NewManager(log)
	tx := m.Begin()
	if _, err := tx.LogInsert(1, 0, 77, []byte{1}); err != nil { // as the engine logs an insert
		t.Fatal(err)
	}
	m.Versions().OnInsert(77, tx)
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if tx.CommitTS() != 1 {
		t.Fatalf("CommitTS = %d, want 1", tx.CommitTS())
	}
	if got := wal.MaxCommitTS(log.Records()); got != 1 {
		t.Fatalf("MaxCommitTS over the log = %d, want 1", got)
	}
	if res, _ := m.Versions().Resolve(77, 1, 0); res.Kind != ResHeap {
		t.Fatalf("chain still pending after commit: %v", res.Kind)
	}
	if got := m.Oracle().Watermark(); got != 1 {
		t.Fatalf("watermark = %d after commit, want 1", got)
	}
}

// gcExaminedMarks reads the GC cost counter.
func gcExaminedMarks(c *VersionCache) uint64 {
	c.gcMu.Lock()
	defer c.gcMu.Unlock()
	return c.gcExamined
}

// TestGCCostDoesNotGrowBehindAnIdleSnapshot: GC runs on every commit, and
// while one old snapshot pins the floor nothing it has parked can be
// trimmed. It must then cost O(1) a call — it used to rescan (and
// reallocate) the whole queue, so every commit cost as much as there had
// been commits since the snapshot. Counted in marks examined, not in time.
func TestGCCostDoesNotGrowBehindAnIdleSnapshot(t *testing.T) {
	m := NewManager(wal.New())
	c, o := m.Versions(), m.Oracle()
	const rows, commits = 100, 5000
	update := func(i int) {
		tx := m.Begin()
		rid := uint64(i % rows)
		if err := tx.Lock(LockKey{PageID: rid}); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.LogUpdate(rid, 0, 0, []byte{byte(i)}, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		write(c, rid, tx, []byte{byte(i)}, false)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Idle values: with no reader, every commit's chain is trimmed by the
	// GC call of that same commit.
	for i := 0; i < rows; i++ {
		update(i)
	}
	idle := c.Stats()
	if idle.VersionChainsLive != 0 || idle.VersionsReclaimed != idle.VersionsCreated {
		t.Fatalf("idle cache keeps history: %+v", idle)
	}

	reader := o.AcquireSnapshot()
	before := gcExaminedMarks(c)
	for i := 0; i < commits; i++ {
		update(i)
	}
	if examined := gcExaminedMarks(c) - before; examined > 2*commits {
		t.Fatalf("%d commits behind an idle snapshot examined %d marks: GC is rescanning its queue", commits, examined)
	}
	pinned := c.Stats()
	if pinned.VersionChainsLive != rows || pinned.VersionsReclaimed != idle.VersionsReclaimed {
		t.Fatalf("history reclaimed under a snapshot that still needs it: %+v", pinned)
	}
	if res, _ := c.Resolve(0, reader, 0); res.Kind != ResData || res.Data[0] != 0 {
		t.Fatalf("reader's version of row 0 = %+v, want the bytes its snapshot saw", res)
	}

	o.ReleaseSnapshot(reader)
	c.GC(o.OldestActive())
	final := c.Stats()
	if final.VersionChainsLive != 0 || final.VersionsReclaimed != final.VersionsCreated {
		t.Fatalf("releasing the snapshot left history behind: %+v", final)
	}
	if final.VersionsCreated != rows+commits {
		t.Fatalf("VersionsCreated = %d, want %d", final.VersionsCreated, rows+commits)
	}
	if parked := c.ParkedMarks(); parked != 0 {
		t.Fatalf("%d marks still parked with no snapshot active", parked)
	}
}

// TestGCQueueOrdersLateMarks: two commits in flight may stamp their chains
// in either order; the later timestamp arriving first must not hide the
// earlier one from a GC whose floor lies between them.
func TestGCQueueOrdersLateMarks(t *testing.T) {
	m, c := newCache()
	w := []*Txn{m.Begin(), m.Begin(), m.Begin()}
	for i, tx := range w {
		write(c, uint64(i+1), tx, []byte{byte(i + 1)}, false)
	}
	commit(c, w[2], 6)
	commit(c, w[1], 5)
	commit(c, w[0], 4)
	c.GC(5)
	if got := c.Stats().VersionChainsLive; got != 1 {
		t.Fatalf("VersionChainsLive = %d after GC(5) over marks 6, 5, 4: want only the chain stamped 6", got)
	}
	if !c.HasChain(3) {
		t.Fatalf("the chain stamped 6 was trimmed at floor 5")
	}
	c.GC(6)
	if got := c.Stats().VersionChainsLive; got != 0 {
		t.Fatalf("VersionChainsLive = %d after GC(6), want 0", got)
	}
}

// TestRetainedEntriesShareTheChainQueue: an index entry kept for older
// snapshots (Retain) waits on the chain queue in timestamp order, so GC
// behind an idle snapshot costs O(1) a call however many entries and
// chains wait; the pass that finds them ready runs each drop once, and
// before it trims the chains, so every drop still sees the chain of the
// delete that retired its entry.
func TestRetainedEntriesShareTheChainQueue(t *testing.T) {
	m := NewManager(wal.New())
	c, o := m.Versions(), m.Oracle()
	const entries, calls = 500, 1000
	reader := o.AcquireSnapshot()
	drops := make([]int, entries)
	for i := range drops {
		tx := m.Begin()
		rid := uint64(i)
		if _, err := tx.LogDelete(1, 0, uint16(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		write(c, rid, tx, []byte{byte(i)}, true) // locks rid
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		c.Retain(tx.CommitTS(), func() {
			drops[i]++
			if !c.HasChain(rid) {
				t.Errorf("the entry of row %d was dropped after its chain", i)
			}
		})
	}
	if got, parked := c.Retained(), c.ParkedMarks(); got != entries || parked != 2*entries {
		t.Fatalf("behind the snapshot %d entries retained, %d marks parked; want %d, %d", got, parked, entries, 2*entries)
	}
	before := gcExaminedMarks(c)
	for i := 0; i < calls-1; i++ {
		c.GC(o.OldestActive())
	}
	if n := slices.Max(drops); n != 0 {
		t.Fatalf("an entry was dropped %d times under the snapshot that needs it", n)
	}
	o.ReleaseSnapshot(reader)
	c.GC(o.OldestActive())
	if examined := gcExaminedMarks(c) - before; examined > 2*(entries+calls) {
		t.Fatalf("%d GC calls over %d entries examined %d marks: GC is rescanning its queue", calls, entries, examined)
	}
	if lo, hi := slices.Min(drops), slices.Max(drops); lo != 1 || hi != 1 {
		t.Fatalf("drops ran between %d and %d times each, want exactly once", lo, hi)
	}
	if got, parked, live := c.Retained(), c.ParkedMarks(), c.Stats().VersionChainsLive; got != 0 || parked != 0 || live != 0 {
		t.Fatalf("after the release %d entries retained, %d marks parked, %d chains; want 0, 0, 0", got, parked, live)
	}
}

// TestOnWriteOwnedKeepsTheSliceOnWriteCopies: the engine hands the cache
// the tuple copy it already made; everyone else may reuse their buffer.
func TestOnWriteOwnedKeepsTheSliceOnWriteCopies(t *testing.T) {
	m, c := newCache()
	tx := m.Begin()
	if _, err := tx.LogUpdate(1, 0, 0, []byte{7}, []byte{8}); err != nil { // enters the active table
		t.Fatal(err)
	}
	buf := []byte{7, 7}
	c.OnWrite(1, tx.ID(), buf, false)
	c.OnWriteOwned(2, tx, buf, false)
	buf[0] = 9
	if res, _ := c.Resolve(1, 0, 0); res.Kind != ResData || res.Data[0] != 7 {
		t.Fatalf("OnWrite aliases the caller's buffer: %+v", res)
	}
	if res, _ := c.Resolve(2, 0, 0); res.Kind != ResData || &res.Data[0] != &buf[0] {
		t.Fatalf("OnWriteOwned copied a slice it was given to keep: %+v", res)
	}
}

// TestCommitReturnsOnlyOnceVisible is the commit-visibility repro: with
// timestamp T still in flight, the commit that drew T+1 used to return
// while the watermark — what a fresh snapshot reads — was still below T+1,
// so the committer's next read could miss its own write.
func TestCommitReturnsOnlyOnceVisible(t *testing.T) {
	m := NewManager(wal.New())
	o := m.Oracle()
	held := o.BeginCommit() // T, kept pending by hand

	tx := m.Begin()
	if err := tx.Lock(LockKey{PageID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LogInsert(1, 1, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	m.Versions().OnInsert(1<<16, tx)
	done := make(chan error, 1)
	go func() { done <- tx.Commit() }()

	// Once the record lock is gone the commit has flushed, stamped and
	// retired T+1: all that is left for it to do is wait to become visible.
	deadline := time.Now().Add(5 * time.Second)
	for heldLocks(m) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("commit did not get as far as releasing its locks")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Commit returned (%v) with timestamp %d in flight: a snapshot taken now reads %d and misses it", err, held, o.Watermark())
	case <-time.After(20 * time.Millisecond):
	}
	snap := o.AcquireSnapshot()
	o.ReleaseSnapshot(snap)
	if snap >= held+1 {
		t.Fatalf("snapshot = %d while timestamp %d is pending", snap, held)
	}

	o.EndCommit(held)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit still waiting after the earlier timestamp ended")
	}
	snap = o.AcquireSnapshot()
	o.ReleaseSnapshot(snap)
	if snap < tx.CommitTS() {
		t.Fatalf("snapshot after Commit returned = %d, below its timestamp %d", snap, tx.CommitTS())
	}
}

// TestFailedCommitDoesNotStallLaterOnes: every failure path pairs
// BeginCommit with EndCommit, so a commit waiting for the watermark is
// never left waiting on a timestamp whose transaction is gone.
func TestFailedCommitDoesNotStallLaterOnes(t *testing.T) {
	log := wal.New()
	m := NewManager(log)
	fail := true
	log.SetFlushHook(func(int) error {
		if fail {
			return errors.New("power cut")
		}
		return nil
	})
	lost := m.Begin()
	if _, err := lost.LogUpdate(1, 0, 0, []byte{0}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := lost.Commit(); err == nil {
		t.Fatal("commit over a failed log write succeeded")
	}
	fail = false
	next := m.Begin()
	if _, err := next.LogUpdate(2, 0, 0, []byte{0}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- next.Commit() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit stalled behind the failed commit's timestamp")
	}
	if got := m.Oracle().Watermark(); got != next.CommitTS() {
		t.Fatalf("watermark = %d, want %d", got, next.CommitTS())
	}
}

// sameStripe returns n distinct RIDs that hash onto one stripe, so the
// chain one of them drops is the chain the next one takes.
func sameStripe(c *VersionCache, n int) []uint64 {
	rids := []uint64{1}
	for rid := uint64(2); len(rids) < n; rid++ {
		if c.stripe(rid) == c.stripe(1) {
			rids = append(rids, rid)
		}
	}
	return rids
}

// onFirst reports whether ch's versions are on its inline array.
func onFirst(ch *chain) bool { return cap(ch.olds) > 0 && &ch.olds[:1][0] == &ch.first[0] }

// TestRecycledChainStartsClean: a chain dropped by an aborted insert or by
// GC comes back to the next insert or update of its stripe reset — no
// owner, writer, superseded versions, head timestamp or flag carried over,
// and its versions back on the inline array.
func TestRecycledChainStartsClean(t *testing.T) {
	m, c := newCache()
	rids := sameStripe(c, 6)
	chainOf := func(rid uint64) *chain { return c.stripe(rid).chains[rid] }
	tx := make([]*Txn, 8)
	for i := range tx {
		tx[i] = m.Begin()
	}

	// Dropped by an aborted insert, reused by an insert and by an update.
	c.OnInsert(rids[0], tx[0])
	dropped := chainOf(rids[0])
	abort(c, tx[0])
	c.OnInsert(rids[1], tx[1])
	if ch := chainOf(rids[1]); ch != dropped || ch.owner != tx[1].ID() || ch.writer != tx[1].ID() || !ch.inserted || ch.pendingDelete || ch.pushed ||
		ch.headTS != 0 || ch.headDeleted || len(ch.olds) != 0 || !onFirst(ch) {
		t.Fatalf("insert over a recycled chain: %+v (recycled %v)", *ch, ch == dropped)
	}
	c.OnInsert(rids[2], tx[2])
	dropped = chainOf(rids[2])
	abort(c, tx[2])
	write(c, rids[3], tx[3], []byte("pre"), false)
	ch := chainOf(rids[3])
	if ch != dropped || ch.owner != tx[3].ID() || ch.writer != tx[3].ID() || ch.inserted || ch.pendingDelete || !ch.pushed || ch.headTS != 0 || ch.headDeleted ||
		len(ch.olds) != 1 || !onFirst(ch) || ch.olds[0].ts != 0 || ch.olds[0].deleted || string(ch.olds[0].data) != "pre" {
		t.Fatalf("update over a recycled chain: %+v (recycled %v)", *ch, ch == dropped)
	}

	// Dropped by GC with a full history — a committed delete at ts 3 over
	// two superseded versions — and reused by an update of a chainless row.
	c.OnInsert(rids[4], tx[4])
	commit(c, tx[4], 1)
	write(c, rids[4], tx[5], []byte("v1"), false)
	commit(c, tx[5], 2)
	write(c, rids[4], tx[6], []byte("v2"), true)
	commit(c, tx[6], 3)
	dropped = chainOf(rids[4])
	if len(dropped.olds) != 2 || !dropped.headDeleted || dropped.headTS != 3 {
		t.Fatalf("history before GC: %+v", *dropped)
	}
	c.GC(3)
	write(c, rids[5], tx[7], []byte("pre"), false)
	if ch := chainOf(rids[5]); ch != dropped || ch.owner != tx[7].ID() || ch.headTS != 0 || ch.headDeleted || len(ch.olds) != 1 || !onFirst(ch) {
		t.Fatalf("update over a chain GC dropped: %+v (recycled %v)", *ch, ch == dropped)
	}
	// A snapshot older than the update reads the pre-image, committed at
	// timestamp zero, not the dropped chain's deleted head at 3.
	if res, _ := c.Resolve(rids[5], 1, 0); res.Kind != ResData || string(res.Data) != "pre" {
		t.Fatalf("snapshot 1 of the updated row = %+v, want the pre-image", res)
	}
}

// TestSnapshotDataOutlivesItsRecycledChain: a resolution hands out version
// bytes, never the chain, so a reader keeps valid data while the chain it
// was read from is trimmed, reset and rewritten for another row. Run it
// under -race: a reset or reuse that touched the bytes would be a race.
func TestSnapshotDataOutlivesItsRecycledChain(t *testing.T) {
	m, c := newCache()
	rids := sameStripe(c, 2)
	tx := m.Begin()
	write(c, rids[0], tx, []byte("old"), false)
	commit(c, tx, 2)
	res, _ := c.Resolve(rids[0], 1, 0)
	if res.Kind != ResData || string(res.Data) != "old" {
		t.Fatalf("snapshot 1 = %+v, want the superseded version", res)
	}
	read := c.stripe(rids[0]).chains[rids[0]]
	done := make(chan string)
	go func() {
		for i := 0; i < 2000; i++ {
			if got := string(res.Data); got != "old" {
				done <- got
				return
			}
		}
		done <- "old"
	}()
	c.GC(2)
	for i := uint64(0); i < 200; i++ {
		tx := m.Begin()
		write(c, rids[1], tx, []byte{byte(i), byte(i), byte(i)}, false)
		if i == 0 && c.stripe(rids[1]).chains[rids[1]] != read {
			t.Fatal("the trimmed chain was not reused")
		}
		commit(c, tx, 3+i)
		c.GC(3 + i)
	}
	if got := <-done; got != "old" {
		t.Fatalf("the reader's version reads %q after its chain was reused, want \"old\"", got)
	}
}

// TestSpareChainsStayBounded: however many chains one abort drops, a stripe
// keeps at most spareChains of them.
func TestSpareChainsStayBounded(t *testing.T) {
	m, c := newCache()
	tx := m.Begin()
	for rid := uint64(1); rid <= 10000; rid++ {
		c.OnInsert(rid, tx)
	}
	abort(c, tx)
	if live := c.Stats().VersionChainsLive; live != 0 {
		t.Fatalf("%d chains live after the abort, want 0", live)
	}
	for i := range c.stripes {
		if s := &c.stripes[i]; len(s.spare) != spareChains || len(s.chains) != 0 {
			t.Fatalf("stripe %d keeps %d spare chains (bound %d) and %d live", i, len(s.spare), spareChains, len(s.chains))
		}
	}
}

// TestGCKeepsALockedChain: a chain is also its record's lock, so GC must
// not drop one a transaction still owns even when no snapshot needs its
// history; the lock's release drops it.
func TestGCKeepsALockedChain(t *testing.T) {
	m, c := newCache()
	const rid = 5
	w := m.Begin()
	write(c, rid, w, []byte("pre"), false)
	commit(c, w, 1) // parked: commit's floor was 0
	holder, rival := m.Begin(), m.Begin()
	if err := c.Lock(rid, holder); err != nil {
		t.Fatal(err)
	}
	c.GC(1)
	if !c.HasChain(rid) {
		t.Fatal("GC dropped a chain whose lock is held")
	}
	if err := c.Lock(rid, rival); !errors.Is(err, ErrConflict) {
		t.Fatalf("rival Lock after GC = %v, want ErrConflict", err)
	}
	c.release(holder, 1)
	if c.HasChain(rid) || c.Stats().VersionChainsLive != 0 {
		t.Fatalf("the release left the chain: %+v", c.Stats())
	}
	if err := c.Lock(rid, rival); err != nil {
		t.Fatalf("Lock after the release: %v", err)
	}
}

// TestReleaseParksAChainItDoesNotDrop: GC keeps a locked chain but spends
// its mark, so the lock's release must drop the chain or park it again,
// whatever floor the releaser read. Here a snapshot pins a committed
// update's mark; a second writer locks the row, the snapshot lets go and
// its GC spends the mark, and the writer rolls back and releases at the
// floor it read while the snapshot was still open.
func TestReleaseParksAChainItDoesNotDrop(t *testing.T) {
	m := NewManager(wal.New())
	c, o := m.Versions(), m.Oracle()
	const rid = 1 << 16
	snap := o.AcquireSnapshot()
	w := m.Begin()
	if _, err := w.LogUpdate(1, 0, 0, []byte{0}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	write(c, rid, w, []byte{0}, false)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if c.ParkedMarks() != 1 {
		t.Fatalf("%d marks parked behind the snapshot, want 1", c.ParkedMarks())
	}
	loser := m.Begin()
	write(c, rid, loser, []byte{1}, false)
	o.ReleaseSnapshot(snap)
	c.GC(o.OldestActive()) // the snapshot's GC: spends the mark, keeps the locked chain
	abort(c, loser)        // releases at floor 0, read before the snapshot let go
	c.GC(o.OldestActive())
	if live, parked := c.Stats().VersionChainsLive, c.ParkedMarks(); live != 0 || parked != 0 {
		t.Fatalf("%d chains live, %d marks parked after every transaction and snapshot ended; want 0, 0", live, parked)
	}
}
