package txn

import (
	"bytes"
	"testing"

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

func TestVersionCacheResolveMatrix(t *testing.T) {
	c := NewVersionCache()
	const rid, writer, reader = 7, 10, 11

	// No chain: any snapshot reads the heap.
	if res, _ := c.Resolve(rid, 0, reader); res.Kind != ResHeap {
		t.Fatalf("chainless resolve = %v, want ResHeap", res.Kind)
	}

	// Uncommitted insert: visible only to the writer.
	c.OnInsert(rid, writer)
	if res, _ := c.Resolve(rid, 99, reader); res.Kind != ResAbsent {
		t.Fatalf("pending insert visible to another txn: %v", res.Kind)
	}
	if res, _ := c.Resolve(rid, 0, writer); res.Kind != ResHeap {
		t.Fatalf("pending insert invisible to its writer: %v", res.Kind)
	}
	c.CommitTxn(writer, 5)

	// Committed at 5: snapshots before 5 miss it, later ones read the heap.
	if res, _ := c.Resolve(rid, 4, reader); res.Kind != ResAbsent {
		t.Fatalf("snapshot 4 sees insert committed at 5: %v", res.Kind)
	}
	if res, _ := c.Resolve(rid, 5, reader); res.Kind != ResHeap {
		t.Fatalf("snapshot 5 misses insert committed at 5: %v", res.Kind)
	}

	// Pending update: other snapshots read the pushed pre-image.
	old := []byte("v1")
	c.OnWrite(rid, writer, old, false)
	res, _ := c.Resolve(rid, 9, reader)
	if res.Kind != ResData || !bytes.Equal(res.Data, old) {
		t.Fatalf("snapshot read during pending update = %v %q, want pre-image", res.Kind, res.Data)
	}
	if res, _ := c.Resolve(rid, 9, writer); res.Kind != ResHeap {
		t.Fatalf("writer must see its own update: %v", res.Kind)
	}
	c.CommitTxn(writer, 9)

	// Committed update: old snapshots keep the superseded version.
	if res, _ := c.Resolve(rid, 8, reader); res.Kind != ResData || !bytes.Equal(res.Data, old) {
		t.Fatalf("snapshot 8 after commit at 9 = %v %q, want v1", res.Kind, res.Data)
	}
	if res, _ := c.Resolve(rid, 9, reader); res.Kind != ResHeap {
		t.Fatalf("snapshot 9 after commit at 9 = %v, want ResHeap", res.Kind)
	}

	// Committed delete: new snapshots see absent, old ones the last value.
	c.OnWrite(rid, writer, []byte("v2"), true)
	c.CommitTxn(writer, 12)
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
	c := NewVersionCache()
	const rid, writer = 3, 20
	c.OnInsert(rid, writer)
	c.CommitTxn(writer, 1)

	c.OnWrite(rid, writer, []byte("committed"), false)
	c.AbortTxn(writer)
	if res, _ := c.Resolve(rid, 1, 0); res.Kind != ResHeap {
		t.Fatalf("aborted update left chain pending: %v", res.Kind)
	}
	if got := c.Stats().VersionsReclaimed; got != 1 {
		t.Fatalf("VersionsReclaimed = %d after abort, want 1", got)
	}

	// Aborted insert on a fresh rid: the whole chain disappears.
	c.OnInsert(4, writer)
	before := c.Stats().ChainsLive
	c.AbortTxn(writer)
	if got := c.Stats().ChainsLive; got != before-1 {
		t.Fatalf("ChainsLive = %d after aborted insert, want %d", got, before-1)
	}
}

func TestVersionCacheGCTrims(t *testing.T) {
	c := NewVersionCache()
	const rid, writer = 9, 30
	c.OnInsert(rid, writer)
	c.CommitTxn(writer, 1)
	for i, ts := range []uint64{3, 5, 7} {
		c.OnWrite(rid, writer, []byte{byte(i)}, false)
		c.CommitTxn(writer, ts)
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
	if got := c.Stats().ChainsLive; got != 0 {
		t.Fatalf("ChainsLive = %d after full GC, want 0", got)
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
	m.Versions().OnInsert(77, tx.ID())
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
