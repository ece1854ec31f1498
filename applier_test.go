package ipa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ipa/internal/ftl"
	"ipa/internal/heap"
	"ipa/internal/page"
	"ipa/internal/wal"
)

// matrixFixture is a small database under applier{db}: one table of
// 32-byte rows (key at offset 0, group at offset 8, the field the update
// records patch at offset 16) with a secondary index on the group, three
// rows — keys 5, 6 and 7 in groups 1, 0 and 1 — flushed to Flash.
type matrixFixture struct {
	t    *testing.T
	db   *DB
	tbl  *Table
	sec  *SecondaryIndex
	rid  heap.RID // row 7, which the heap records address
	row  []byte   // its bytes as inserted
	lost uint64   // a page identifier handed out but never written: not on Flash, not in the pool
}

const (
	matrixField = 16 // tuple offset the update records patch
	matrixKey   = 7  // the fixture row the records address
	matrixFree  = 9  // a primary key no row owns
	matrixGroup = 1  // the secondary key of rows 5 and 7
)

var (
	matrixOld   = matrixRow(matrixKey)[matrixField : matrixField+4] // the field as inserted
	matrixNew   = []byte{0xDE, 0xAD, 0xBE, 0xEF}                    // after image of the update records
	matrixOther = []byte{1, 2, 3, 4}                                // what a later writer left in the field
)

func matrixRow(key int64) []byte {
	row := make([]byte, 32)
	binary.LittleEndian.PutUint64(row, uint64(key))
	binary.LittleEndian.PutUint64(row[8:], uint64(key%2))
	for i := 16; i < len(row); i++ {
		row[i] = byte(0x40 + int(key) + i)
	}
	return row
}

// smallGeometry is the device the white-box tests of this package run on.
func smallGeometry() Config {
	return Config{PageSize: 4096, Blocks: 64, PagesPerBlock: 32, BufferPoolPages: 16}
}

func openMatrix(t *testing.T) *matrixFixture {
	t.Helper()
	cfg := smallGeometry()
	cfg.WriteMode, cfg.Scheme, cfg.FlashMode = IPANativeFlash, Scheme{N: 2, M: 4}, PSLC
	db, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = db.Close() })
	f := &matrixFixture{t: t, db: db, row: matrixRow(matrixKey)}
	if f.tbl, err = db.CreateTable("t", 32); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if f.sec, err = f.tbl.CreateSecondaryIndex("grp", Int64Field(8)); err != nil {
		t.Fatalf("CreateSecondaryIndex: %v", err)
	}
	tx := db.Begin()
	for key := int64(5); key <= matrixKey; key++ {
		if err := tx.Insert(f.tbl, key, matrixRow(key)); err != nil {
			t.Fatalf("Insert %d: %v", key, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if f.rid, err = f.tbl.rid(matrixKey); err != nil {
		t.Fatal(err)
	}
	if f.lost, err = db.store.AllocatePage(f.tbl.id); err != nil {
		t.Fatal(err)
	}
	return f
}

// thisRID is row 7's; otherRID one no fixture row owns — a later writer's,
// or what an index record carries for a key that maps to a fixture row.
func thisRID(f *matrixFixture) uint64  { return f.rid.Pack() }
func otherRID(f *matrixFixture) uint64 { return heap.RID{PageID: f.rid.PageID, Slot: 40}.Pack() }

// secPair identifies one (secondary key, packed RID) index pair.
type secPair struct {
	key int64
	rid uint64
}

// matrixState is everything a record may change, as the test compares it.
type matrixState struct {
	Page, Lost  []byte // images of the row's page and the lost page (nil while it does not exist)
	HeapPages   []uint64
	PK          map[int64]uint64 // the volatile directory
	PKFile      map[int64]bool   // the persistent entry file, probed at the keys the records use
	Sec         map[secPair]bool
	SecFile     map[secPair]bool
	PKFileLen   int
	SecFileLen  int
	SecKeyCount int
}

func (f *matrixFixture) image(pid uint64) []byte {
	h, err := f.db.pool.Fetch(pid)
	if errors.Is(err, ftl.ErrUnmapped) {
		return nil
	}
	if err != nil {
		f.t.Fatalf("fetch page %d: %v", pid, err)
	}
	defer h.Release()
	return append([]byte(nil), h.Data()...)
}

func (f *matrixFixture) state() matrixState {
	st := matrixState{
		Page: f.image(f.rid.PageID), Lost: f.image(f.lost), HeapPages: f.tbl.heap.PageIDs(),
		PK: map[int64]uint64{}, PKFile: map[int64]bool{}, Sec: map[secPair]bool{}, SecFile: map[secPair]bool{},
		PKFileLen: f.tbl.idx.Len(), SecFileLen: f.sec.file.Len(), SecKeyCount: f.sec.Keys(),
	}
	f.tbl.mu.RLock()
	defer f.tbl.mu.RUnlock()
	f.tbl.pk.Ascend(func(k int64, v uint64) bool { st.PK[k] = v; return true })
	for _, k := range []int64{5, 6, matrixKey, matrixFree} {
		st.PKFile[k] = f.tbl.idx.Contains(k)
	}
	for key, set := range f.sec.rids {
		for rid := range set {
			st.Sec[secPair{key, rid}] = true
		}
	}
	for _, rid := range []uint64{thisRID(f), otherRID(f)} {
		st.SecFile[secPair{matrixGroup, rid}] = f.sec.file.Contains(matrixGroup, rid)
	}
	return st
}

// slot reads a slot of the row's page out of a captured image: the tuple,
// or nil for a deleted slot; ok is false past the slot array.
func (f *matrixFixture) slot(img []byte, slot int) (tuple []byte, ok bool) {
	pg, err := page.Wrap(append([]byte(nil), img...))
	if err != nil {
		f.t.Fatal(err)
	}
	if slot >= pg.SlotCount() {
		return nil, false
	}
	if deleted, _ := pg.Deleted(slot); deleted {
		return nil, true
	}
	tuple, err = pg.Tuple(slot)
	if err != nil {
		f.t.Fatal(err)
	}
	return tuple, true
}

func (f *matrixFixture) apply(r wal.Record, a wal.Action) {
	f.t.Helper()
	if err := wal.Apply(applier{f.db}, &r, a); err != nil {
		f.t.Fatal(err)
	}
}

// applyAgain applies r a second time and expects the state once left.
func (f *matrixFixture) applyAgain(r wal.Record, a wal.Action, once matrixState) {
	f.t.Helper()
	f.apply(r, a)
	if twice := f.state(); !reflect.DeepEqual(once, twice) {
		f.t.Errorf("applied twice differs from applied once:\nonce  %s\ntwice %s", once.brief(), twice.brief())
	}
}

// Preparations: how the slot or the index looks when the record arrives.
func (f *matrixFixture) fieldHolds(b []byte) {
	if err := f.tbl.heap.UpdateAt(f.rid, matrixField, b); err != nil {
		f.t.Fatal(err)
	}
}

func (f *matrixFixture) slotDeleted() {
	if err := f.tbl.heap.Delete(f.rid); err != nil {
		f.t.Fatal(err)
	}
}

// Records, all addressing row 7 unless a case moves them.
func (f *matrixFixture) update() wal.Record {
	return wal.Record{LSN: 100, Type: wal.RecUpdate, PageID: f.rid.PageID, Slot: f.rid.Slot, Offset: matrixField,
		Old: matrixOld, New: matrixNew}
}

func (f *matrixFixture) insert() wal.Record {
	return wal.Record{LSN: 100, Type: wal.RecInsert, ObjectID: f.tbl.id, PageID: f.rid.PageID, Slot: f.rid.Slot, New: f.row}
}

func (f *matrixFixture) delete() wal.Record {
	return wal.Record{LSN: 100, Type: wal.RecDelete, ObjectID: f.tbl.id, PageID: f.rid.PageID, Slot: f.rid.Slot, Old: f.row}
}

func indexRecord(typ wal.RecordType, objectID uint32, key int64, rid uint64) wal.Record {
	img := wal.ValueImage(rid)
	r := wal.Record{LSN: 100, Type: typ, ObjectID: objectID, Key: key}
	if typ == wal.RecIndexInsert {
		r.New = img[:]
	} else {
		r.Old = img[:]
	}
	return r
}

// Expectations on the state one application leaves.
type matrixWant func(f *matrixFixture, before, after matrixState)

func unchanged(f *matrixFixture, before, after matrixState) {
	f.t.Helper()
	if !reflect.DeepEqual(before, after) {
		f.t.Errorf("the record must change nothing here:\nbefore %s\nafter  %s", before.brief(), after.brief())
	}
}

// rowIs expects the row's slot live with field in its patched bytes (the
// rest as inserted), or deleted for a nil field.
func rowIs(field []byte) matrixWant {
	return func(f *matrixFixture, _, after matrixState) {
		f.t.Helper()
		got, _ := f.slot(after.Page, int(f.rid.Slot))
		var want []byte
		if field != nil {
			want = append([]byte(nil), f.row...)
			copy(want[matrixField:], field)
		}
		if !bytes.Equal(got, want) {
			f.t.Errorf("slot holds %x, want %x", got, want)
		}
	}
}

// pkIs expects key to map to rid in the volatile directory and the entry
// file alike; a nil rid means unmapped in both.
func pkIs(key int64, rid func(*matrixFixture) uint64) matrixWant {
	return func(f *matrixFixture, _, after matrixState) {
		f.t.Helper()
		var want uint64
		if rid != nil {
			want = rid(f)
		}
		if got, ok := after.PK[key]; got != want || ok != (rid != nil) || after.PKFile[key] != (rid != nil) {
			f.t.Errorf("pk[%d] = %#x (mapped %v, in the entry file %v), want %#x", key, got, ok, after.PKFile[key], want)
		}
	}
}

// pairIs expects the secondary pair (matrixGroup, rid) present or absent in
// both halves of the index, and row 5's pair under the same key untouched.
func pairIs(rid func(*matrixFixture) uint64, present bool) matrixWant {
	return func(f *matrixFixture, _, after matrixState) {
		f.t.Helper()
		p := secPair{matrixGroup, rid(f)}
		if after.Sec[p] != present || after.SecFile[p] != present {
			f.t.Errorf("pair %v: in the directory %v, in the entry file %v, want %v", p, after.Sec[p], after.SecFile[p], present)
		}
		if other, _ := f.tbl.rid(5); !after.Sec[secPair{matrixGroup, other.Pack()}] {
			f.t.Errorf("row 5's pair under the same key is gone")
		}
	}
}

func (s matrixState) brief() string {
	return fmt.Sprintf("heapPages=%v pk=%v pkFile=%v/%d sec=%v secFile=%v/%d lostPage=%v",
		s.HeapPages, s.PK, s.PKFile, s.PKFileLen, s.Sec, s.SecFile, s.SecFileLen, s.Lost != nil)
}

// TestApplierMatrix walks the contract table of applier: record type ×
// action × the state the record finds. Each cell must leave what the table
// says, and applied twice must equal applied once — recovery may be
// interrupted and rerun, and segment-granular truncation replays records
// whose effect is already there.
func TestApplierMatrix(t *testing.T) {
	type cell struct {
		name string
		prep func(f *matrixFixture)
		rec  func(f *matrixFixture) wal.Record
		acts []wal.Action
		want matrixWant
	}
	redo, comp := []wal.Action{wal.Redo}, []wal.Action{wal.Compensate}
	rollback := []wal.Action{wal.Undo, wal.Compensate}
	pastTheSlots := func(rec func(*matrixFixture) wal.Record) func(*matrixFixture) wal.Record {
		return func(f *matrixFixture) wal.Record { r := rec(f); r.Slot = 60; return r }
	}
	pk := func(typ wal.RecordType, key int64, rid func(*matrixFixture) uint64) func(*matrixFixture) wal.Record {
		return func(f *matrixFixture) wal.Record { return indexRecord(typ, f.tbl.idxID, key, rid(f)) }
	}
	sec := func(typ wal.RecordType, rid func(*matrixFixture) uint64) func(*matrixFixture) wal.Record {
		return func(f *matrixFixture) wal.Record { return indexRecord(typ, f.sec.id, matrixGroup, rid(f)) }
	}
	holdsNew := func(f *matrixFixture) { f.fieldHolds(matrixNew) }
	holdsOther := func(f *matrixFixture) { f.fieldHolds(matrixOther) }
	cells := []cell{
		{"update/installs the after image", nil, (*matrixFixture).update, redo, rowIs(matrixNew)},
		{"update/installs the before image", holdsNew, (*matrixFixture).update, rollback, rowIs(matrixOld)},
		{"update/rollback already on Flash", nil, (*matrixFixture).update, comp, unchanged},
		{"update/a later writer's bytes stand", holdsOther, (*matrixFixture).update, comp, unchanged},
		{"update/slot deleted since", (*matrixFixture).slotDeleted, (*matrixFixture).update, []wal.Action{wal.Redo, wal.Compensate}, unchanged},
		{"update/slot never reached Flash", nil, pastTheSlots((*matrixFixture).update), comp, unchanged},

		{"insert/live slot", nil, (*matrixFixture).insert, redo, unchanged},
		// Redo leaves the count alone: Reopen takes it from the recovered index.
		{"insert/deleted slot comes back", (*matrixFixture).slotDeleted, (*matrixFixture).insert, redo, rowIs(matrixOld)},
		{"insert/gap slots are filled", nil, func(f *matrixFixture) wal.Record {
			r := f.insert()
			r.Slot, r.New = f.rid.Slot+2, matrixRow(11)
			return r
		}, redo, func(f *matrixFixture, _, a matrixState) {
			if gap, ok := f.slot(a.Page, int(f.rid.Slot)+1); !ok || !bytes.Equal(gap, make([]byte, 32)) {
				f.t.Errorf("gap slot holds %x (present %v), want 32 zero bytes", gap, ok)
			}
			if got, _ := f.slot(a.Page, int(f.rid.Slot)+2); !bytes.Equal(got, matrixRow(11)) {
				f.t.Errorf("inserted slot holds %x", got)
			}
		}},
		{"insert/removed", nil, (*matrixFixture).insert, rollback, rowIs(nil)},
		{"insert/already removed", (*matrixFixture).slotDeleted, (*matrixFixture).insert, rollback, unchanged},
		{"insert/slot never reached Flash", nil, pastTheSlots((*matrixFixture).insert), rollback, unchanged},

		{"delete/repeated", nil, (*matrixFixture).delete, redo, rowIs(nil)},
		{"delete/already deleted", (*matrixFixture).slotDeleted, (*matrixFixture).delete, redo, unchanged},
		{"delete/slot never reached Flash", nil, pastTheSlots((*matrixFixture).delete), redo, unchanged},
		{"delete/restored", (*matrixFixture).slotDeleted, (*matrixFixture).delete, rollback, rowIs(matrixOld)},
		{"delete/never reached the surviving state", holdsOther, (*matrixFixture).delete, rollback, unchanged},

		{"pk insert/put", nil, pk(wal.RecIndexInsert, matrixFree, otherRID), redo, pkIs(matrixFree, otherRID)},
		{"pk insert/history remaps the key", nil, pk(wal.RecIndexInsert, matrixKey, otherRID), redo, pkIs(matrixKey, otherRID)},
		{"pk insert/dropped while it maps to this RID", nil, pk(wal.RecIndexInsert, matrixKey, thisRID), rollback, pkIs(matrixKey, nil)},
		{"pk insert/a later writer re-mapped the key", nil, pk(wal.RecIndexInsert, matrixKey, otherRID), rollback, unchanged},
		{"pk insert/already dropped", nil, pk(wal.RecIndexInsert, matrixFree, otherRID), rollback, unchanged},
		{"pk delete/dropped", nil, pk(wal.RecIndexDelete, matrixKey, thisRID), redo, pkIs(matrixKey, nil)},
		{"pk delete/already dropped", nil, pk(wal.RecIndexDelete, matrixFree, otherRID), redo, unchanged},
		{"pk delete/restored while the key is unmapped", nil, pk(wal.RecIndexDelete, matrixFree, otherRID), rollback, pkIs(matrixFree, otherRID)},
		{"pk delete/a later writer re-mapped the key", nil, pk(wal.RecIndexDelete, matrixKey, otherRID), rollback, unchanged},

		{"secondary insert/put", nil, sec(wal.RecIndexInsert, otherRID), redo, pairIs(otherRID, true)},
		{"secondary insert/already there", nil, sec(wal.RecIndexInsert, thisRID), redo, unchanged},
		{"secondary insert/exact pair dropped", nil, sec(wal.RecIndexInsert, thisRID), rollback, pairIs(thisRID, false)},
		{"secondary insert/already dropped", nil, sec(wal.RecIndexInsert, otherRID), rollback, unchanged},
		{"secondary delete/dropped", nil, sec(wal.RecIndexDelete, thisRID), redo, pairIs(thisRID, false)},
		{"secondary delete/already dropped", nil, sec(wal.RecIndexDelete, otherRID), redo, unchanged},
		{"secondary delete/restored", nil, sec(wal.RecIndexDelete, otherRID), rollback, pairIs(otherRID, true)},
		{"secondary delete/never reached the surviving state", nil, sec(wal.RecIndexDelete, thisRID), rollback, unchanged},
	}
	for _, c := range cells {
		for _, act := range c.acts {
			t.Run(c.name+"/"+act.String(), func(t *testing.T) {
				f := openMatrix(t)
				if c.prep != nil {
					c.prep(f)
				}
				before, rec := f.state(), c.rec(f)
				f.apply(rec, act)
				once := f.state()
				c.want(f, before, once)
				f.applyAgain(rec, act, once)
			})
		}
	}
	t.Run("page never reached Flash", testUnflushedPage)
}

// testUnflushedPage: a record whose page has no copy on Flash has nothing
// to repeat or roll back — except a committed insert, whose redo brings the
// page back and hands it to its heap file.
func testUnflushedPage(t *testing.T) {
	for _, rec := range []func(*matrixFixture) wal.Record{(*matrixFixture).update, (*matrixFixture).insert, (*matrixFixture).delete} {
		for _, act := range []wal.Action{wal.Redo, wal.Undo, wal.Compensate} {
			f := openMatrix(t)
			r := rec(f)
			r.PageID, r.Slot = f.lost, 1
			t.Run(fmt.Sprintf("%s/%s", r.Type, act), func(t *testing.T) {
				f.t = t
				before := f.state()
				f.apply(r, act)
				once := f.state()
				if r.Type != wal.RecInsert || act != wal.Redo {
					unchanged(f, before, once)
					return
				}
				if got, _ := f.slot(once.Lost, 1); !bytes.Equal(got, f.row) {
					t.Errorf("recreated page holds %x in the slot, want the inserted row", got)
				}
				if n := len(once.HeapPages); n != len(before.HeapPages)+1 || once.HeapPages[n-1] != f.lost {
					t.Errorf("heap file owns pages %v, want %v and the recreated page %d", once.HeapPages, before.HeapPages, f.lost)
				}
				f.applyAgain(r, act, once)
			})
		}
	}
}
