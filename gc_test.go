package ipa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// gcFixture opens a small engine with rows committed rows of 64 bytes.
func gcFixture(t *testing.T, rows int64) (*DB, *Table) {
	t.Helper()
	db, err := Open(Config{
		PageSize: 2048, Blocks: 24, PagesPerBlock: 16, BufferPoolPages: 8,
		WriteMode: IPANativeFlash, Scheme: Scheme{N: 2, M: 4}, FlashMode: PSLC,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k := int64(0); k < rows; k++ {
		if err := tx.Insert(tbl, k, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// pinSnapshot returns a transaction holding the reader snapshot its first
// Get would take.
func pinSnapshot(db *DB) *Tx {
	reader := db.Begin()
	reader.snapshot()
	return reader
}

func commitTx(t *testing.T, db *DB, op func(*Tx) error) {
	t.Helper()
	tx := db.Begin()
	if err := op(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReleaseCollectsParkedVersions: maybeGC returns at once when
// no zombie and no chain waits, so it must see the chains parked behind a
// snapshot. A reader pins one while a row takes 100 committed updates; the
// commits' own GC can reclaim none of them, and the reader's release (an
// Abort: no commit, no GC of its own) must reclaim all 100.
func TestSnapshotReleaseCollectsParkedVersions(t *testing.T) {
	db, tbl := gcFixture(t, 1)
	db.ResetStats()
	vc := db.txns.Versions()
	reader := pinSnapshot(db)
	for i := 0; i < 100; i++ {
		commitTx(t, db, func(tx *Tx) error { return tx.UpdateAt(tbl, 0, 0, []byte{byte(i)}) })
	}
	if s, parked := db.Stats(), vc.ParkedMarks(); s.VersionsCreated != 100 || s.VersionsReclaimed != 0 || parked != 100 {
		t.Fatalf("behind the snapshot: created %d, reclaimed %d, parked %d; want 100, 0, 100", s.VersionsCreated, s.VersionsReclaimed, parked)
	}
	if err := reader.Abort(); err != nil {
		t.Fatal(err)
	}
	if s, parked := db.Stats(), vc.ParkedMarks(); s.VersionsReclaimed != 100 || s.VersionChainsLive != 0 || parked != 0 {
		t.Fatalf("after the release: reclaimed %d, chains %d, parked %d; want 100, 0, 0", s.VersionsReclaimed, s.VersionChainsLive, parked)
	}
}

// TestSnapshotReleaseDropsZombie: the same with a committed delete, whose
// pk entry the snapshot keeps as a zombie: it is parked on the GC queue
// beside the delete's chain. Released as Tx.releaseSnapshot does it, both
// go. Then the interleaving in which a commit's own GC runs between a
// release and its maybeGC: that pass finds the entry and the chain ready
// together and drops the entry first, so nothing is left for maybeGC.
func TestSnapshotReleaseDropsZombie(t *testing.T) {
	db, tbl := gcFixture(t, 3)
	vc := db.txns.Versions()
	for _, interleaved := range []bool{false, true} {
		key := int64(0)
		if interleaved {
			key = 1
		}
		rid, err := tbl.rid(key)
		if err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		reader := pinSnapshot(db)
		commitTx(t, db, func(tx *Tx) error { return tx.Delete(tbl, key) })
		if z, parked := vc.Retained(), vc.ParkedMarks(); z != 1 || parked != 2 {
			t.Fatalf("interleaved=%v: behind the snapshot %d zombies, %d parked; want 1, 2 (the entry and its chain)", interleaved, z, parked)
		}
		if interleaved {
			db.txns.Oracle().ReleaseSnapshot(reader.snap)
			reader.hasSnap = false
			commitTx(t, db, func(tx *Tx) error { return tx.UpdateAt(tbl, 2, 0, []byte{1}) })
		} else if err := reader.Abort(); err != nil {
			t.Fatal(err)
		}
		if s, parked := db.Stats(), vc.ParkedMarks(); s.ZombieEntries != 0 || s.ZombiesReclaimed != 1 || parked != 0 || vc.HasChain(rid.Pack()) {
			t.Fatalf("interleaved=%v: after the release %d zombies (%d reclaimed), %d parked, chain kept %v; want 0 (1), 0, false",
				interleaved, s.ZombieEntries, s.ZombiesReclaimed, parked, vc.HasChain(rid.Pack()))
		}
		if _, err := tbl.rid(key); err == nil {
			t.Fatalf("interleaved=%v: key %d still in the primary index", interleaved, key)
		}
	}
}

// TestZombieNeverOutlivesItsChain: a snapshot pins a committed delete of
// key 1 and lets go without collecting; an unrelated commit's own GC then
// finds the delete's chain ready. It must drop the key's retained pk entry
// with the chain: an entry left behind it points at no live tuple and no
// chain, so the integrity check fails and the key cannot be inserted again.
func TestZombieNeverOutlivesItsChain(t *testing.T) {
	db, tbl := gcFixture(t, 3)
	reader := pinSnapshot(db)
	commitTx(t, db, func(tx *Tx) error { return tx.Delete(tbl, 1) })
	db.txns.Oracle().ReleaseSnapshot(reader.snap)
	reader.hasSnap = false
	commitTx(t, db, func(tx *Tx) error { return tx.UpdateAt(tbl, 2, 0, []byte{1}) })
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("after the unrelated commit: %v", err)
	}
	commitTx(t, db, func(tx *Tx) error { return tx.Insert(tbl, 1, make([]byte, 64)) })
	if got, err := tbl.Get(1); err != nil || len(got) != 64 {
		t.Fatalf("reinserted key 1 reads %d bytes, %v", len(got), err)
	}
}

// TestCommitRetiresWhatItsRecordsName: one transaction behind an open
// snapshot deletes key 1, moves key 2's secondary key A→B, moves key 3's
// A→B→A and inserts then deletes key 9. The snapshot still reads key 1;
// a fresh secondary lookup finds row 2 under B and row 3 under A; the
// retained entries are the pk zombies of keys 1 and 9 and the pairs (A, 1),
// (A, 2), (B, 3) and (A, 9) — (A, 3) is live again. The snapshot's release
// reclaims them all, with every version chain.
func TestCommitRetiresWhatItsRecordsName(t *testing.T) {
	const a, b = 10, 20
	db, err := Open(Config{
		PageSize: 2048, Blocks: 24, PagesPerBlock: 16, BufferPoolPages: 8,
		WriteMode: IPANativeFlash, Scheme: Scheme{N: 2, M: 4}, FlashMode: PSLC,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateSecondaryIndex("g", Int64Field(8)); err != nil {
		t.Fatal(err)
	}
	row := func(key, group int64) []byte {
		r := make([]byte, 64)
		r[0] = byte(key)
		binary.LittleEndian.PutUint64(r[8:], uint64(group))
		return r
	}
	group := func(g int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(g)) }
	commitTx(t, db, func(tx *Tx) error {
		for k := int64(1); k <= 3; k++ {
			if err := tx.Insert(tbl, k, row(k, a)); err != nil {
				return err
			}
		}
		return nil
	})
	reader := pinSnapshot(db)
	commitTx(t, db, func(tx *Tx) error {
		return errors.Join(tx.Delete(tbl, 1),
			tx.UpdateAt(tbl, 2, 8, group(b)),
			tx.UpdateAt(tbl, 3, 8, group(b)), tx.UpdateAt(tbl, 3, 8, group(a)),
			tx.Insert(tbl, 9, row(9, a)), tx.Delete(tbl, 9))
	})
	lookup := func(g int64) (keys []byte) {
		rows, err := tbl.GetBySecondary("g", g)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			keys = append(keys, r[0])
		}
		return keys
	}
	check := func(when string) {
		t.Helper()
		if got, want := lookup(a), []byte{3}; !bytes.Equal(got, want) {
			t.Fatalf("%s: group A holds rows %v, want %v", when, got, want)
		}
		if got, want := lookup(b), []byte{2}; !bytes.Equal(got, want) {
			t.Fatalf("%s: group B holds rows %v, want %v", when, got, want)
		}
		if err := db.VerifyIntegrity(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	if got, err := reader.Get(tbl, 1); err != nil || !bytes.Equal(got, row(1, a)) {
		t.Fatalf("the snapshot reads key 1 as %v, %v; want its old row", got, err)
	}
	check("behind the snapshot")
	if z := db.Stats().ZombieEntries; z != 6 {
		t.Fatalf("behind the snapshot %d retained index entries, want 6", z)
	}
	if err := reader.Abort(); err != nil {
		t.Fatal(err)
	}
	check("after the release")
	if s := db.Stats(); s.ZombieEntries != 0 || s.VersionChainsLive != 0 {
		t.Fatalf("after the release %d retained entries, %d version chains; want 0, 0", s.ZombieEntries, s.VersionChainsLive)
	}
}
