package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"ipa/internal/core"
)

func newTestPage(t *testing.T, size, deltaArea int) *Page {
	t.Helper()
	buf := make([]byte, size)
	p, err := Init(buf, 42, 7, deltaArea)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	return p
}

func TestInitAndWrap(t *testing.T) {
	buf := make([]byte, 4096)
	p, err := Init(buf, 12345, 9, 122)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	if p.ID() != 12345 || p.ObjectID() != 9 || p.DeltaAreaSize() != 122 {
		t.Fatalf("header fields wrong: id=%d obj=%d delta=%d", p.ID(), p.ObjectID(), p.DeltaAreaSize())
	}
	if p.SlotCount() != 0 || p.LSN() != 0 {
		t.Fatalf("fresh page not empty")
	}
	w, err := Wrap(buf)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	if w.ID() != 12345 {
		t.Fatalf("Wrap lost the header")
	}
	if _, err := Wrap(make([]byte, 4096)); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("Wrap of zero buffer must fail, got %v", err)
	}
	if _, err := Wrap(make([]byte, 8)); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("Wrap of tiny buffer must fail, got %v", err)
	}
	if _, err := Init(make([]byte, 32), 1, 1, 0); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("Init of tiny buffer must fail, got %v", err)
	}
}

func TestLayoutBoundaries(t *testing.T) {
	p := newTestPage(t, 4096, 100)
	if len(p.Buf()) != 4096 {
		t.Fatalf("Size = %d", len(p.Buf()))
	}
	if p.DeltaAreaStart() != 4096-FooterSize-100 {
		t.Fatalf("DeltaAreaStart = %d", p.DeltaAreaStart())
	}
	if p.BodyEnd() != p.DeltaAreaStart() {
		t.Fatalf("BodyEnd must equal DeltaAreaStart")
	}
	if len(p.DeltaArea()) != 100 {
		t.Fatalf("DeltaArea length = %d", len(p.DeltaArea()))
	}
}

func TestInsertAndReadTuples(t *testing.T) {
	p := newTestPage(t, 2048, 0)
	var slots []int
	for i := 0; i < 10; i++ {
		tuple := bytes.Repeat([]byte{byte(i + 1)}, 50)
		slot, err := p.InsertTuple(tuple)
		if err != nil {
			t.Fatalf("InsertTuple %d: %v", i, err)
		}
		slots = append(slots, slot)
	}
	if p.SlotCount() != 10 {
		t.Fatalf("SlotCount = %d", p.SlotCount())
	}
	for i, s := range slots {
		got, err := p.Tuple(s)
		if err != nil {
			t.Fatalf("Tuple %d: %v", s, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 50)) {
			t.Fatalf("tuple %d content wrong", s)
		}
	}
}

func TestPageFull(t *testing.T) {
	p := newTestPage(t, 512, 0)
	tuple := make([]byte, 100)
	inserted := 0
	for {
		if _, err := p.InsertTuple(tuple); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		inserted++
	}
	if inserted == 0 || inserted > 5 {
		t.Fatalf("unexpected number of tuples in a 512-byte page: %d", inserted)
	}
	if p.FreeSpace() >= 100+SlotSize {
		t.Fatalf("FreeSpace inconsistent with the failed insert")
	}
}

func TestUpdateTupleAt(t *testing.T) {
	p := newTestPage(t, 2048, 0)
	slot, err := p.InsertTuple(make([]byte, 64))
	if err != nil {
		t.Fatalf("InsertTuple: %v", err)
	}
	if err := p.UpdateTupleAt(slot, 10, []byte{1, 2, 3}); err != nil {
		t.Fatalf("UpdateTupleAt: %v", err)
	}
	got, _ := p.Tuple(slot)
	if got[10] != 1 || got[11] != 2 || got[12] != 3 {
		t.Fatalf("update not applied: %v", got[8:14])
	}
	if err := p.UpdateTupleAt(slot, 62, []byte{1, 2, 3}); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("out-of-bounds update not rejected: %v", err)
	}
	if err := p.UpdateTupleAt(99, 0, []byte{1}); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("bad slot not rejected: %v", err)
	}
}

func TestDeleteTuple(t *testing.T) {
	p := newTestPage(t, 2048, 0)
	slot, _ := p.InsertTuple(make([]byte, 32))
	if err := p.DeleteTuple(slot); err != nil {
		t.Fatalf("DeleteTuple: %v", err)
	}
	if _, err := p.Tuple(slot); !errors.Is(err, ErrDeleted) {
		t.Fatalf("deleted tuple still readable: %v", err)
	}
	if err := p.DeleteTuple(slot); !errors.Is(err, ErrDeleted) {
		t.Fatalf("double delete not detected: %v", err)
	}
	deleted, err := p.Deleted(slot)
	if err != nil || !deleted {
		t.Fatalf("Deleted() wrong: %v %v", deleted, err)
	}
}

// TestChangeRecording: every mutation reaches the page's tracker — body
// bytes as patches, header and footer as a metadata change.
func TestChangeRecording(t *testing.T) {
	p := newTestPage(t, 2048, 64)
	var tr core.Tracker
	tr.Init(core.Scheme{N: 4, M: 8}, p.BodyEnd(), 0)
	p.SetRecorder(&tr)

	slot, err := p.InsertTuple(make([]byte, 40))
	if err != nil {
		t.Fatalf("InsertTuple: %v", err)
	}
	// A zero tuple over zeroed space changes only its slot entry's offset
	// and length bytes.
	if tr.NetChangedBytes() != 2 || !tr.MetaChanged() {
		t.Fatalf("insert must report its slot entry and a metadata change: %d bytes, meta %v", tr.NetChangedBytes(), tr.MetaChanged())
	}
	if err := p.UpdateTupleAt(slot, 5, []byte{0xAA}); err != nil {
		t.Fatalf("UpdateTupleAt: %v", err)
	}
	if tr.NetChangedBytes() != 3 {
		t.Fatalf("update must report exactly one changed byte, tracker holds %d", tr.NetChangedBytes())
	}
	tr.Init(core.Scheme{N: 4, M: 8}, p.BodyEnd(), 0)
	p.SetFlags(FlagOutOfPlace)
	if !tr.MetaChanged() || tr.NetChangedBytes() != 0 {
		t.Fatalf("SetFlags must report a metadata change only: meta %v, %d bytes", tr.MetaChanged(), tr.NetChangedBytes())
	}
	if p.Flags() != FlagOutOfPlace {
		t.Fatalf("Flags = %d", p.Flags())
	}
}

func TestMetaRoundTrip(t *testing.T) {
	p := newTestPage(t, 2048, 64)
	binary.LittleEndian.PutUint64(p.buf[offLSN:], 123)
	p.SetFlags(FlagOutOfPlace)
	meta := p.Meta()
	if len(meta) != MetaSize {
		t.Fatalf("Meta length = %d", len(meta))
	}
	// Build a second page and install the metadata.
	q := newTestPage(t, 2048, 64)
	if err := q.ApplyMeta(meta); err != nil {
		t.Fatalf("ApplyMeta: %v", err)
	}
	if q.LSN() != 123 || q.Flags() != FlagOutOfPlace || q.ID() != 42 {
		t.Fatalf("metadata not installed: lsn=%d flags=%d id=%d", q.LSN(), q.Flags(), q.ID())
	}
	if err := q.ApplyMeta(meta[:10]); err == nil {
		t.Fatalf("short metadata must be rejected")
	}
	// ApplyMeta must not let corrupted metadata change the delta-area size.
	bad := append([]byte(nil), meta...)
	bad[offDeltaSize] = 0xFF
	bad[offDeltaSize+1] = 0xFF
	if err := q.ApplyMeta(bad); err != nil {
		t.Fatalf("ApplyMeta: %v", err)
	}
	if q.DeltaAreaSize() != 64 {
		t.Fatalf("delta area size must be preserved, got %d", q.DeltaAreaSize())
	}
}

func TestDeltaAreaHelpers(t *testing.T) {
	p := newTestPage(t, 1024, 32)
	p.ResetDeltaArea()
	for _, b := range p.DeltaArea() {
		if b != 0xFF {
			t.Fatalf("ResetDeltaArea must fill with 0xFF")
		}
	}
}

// TestInsertReadProperty: tuples of arbitrary content survive insertion and
// retrieval unchanged, and never overlap the delta area or footer.
func TestInsertReadProperty(t *testing.T) {
	f := func(tuples [][]byte) bool {
		buf := make([]byte, 4096)
		p, err := Init(buf, 1, 1, 128)
		if err != nil {
			return false
		}
		var stored [][]byte
		for _, tup := range tuples {
			if len(tup) == 0 || len(tup) > 200 {
				continue
			}
			slot, err := p.InsertTuple(tup)
			if err != nil {
				if errors.Is(err, ErrPageFull) {
					break
				}
				return false
			}
			if slot != len(stored) {
				return false
			}
			stored = append(stored, tup)
		}
		for i, want := range stored {
			got, err := p.Tuple(i)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		// The delta area and footer must stay untouched by inserts.
		for _, b := range p.DeltaArea() {
			if b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatalf("insert/read property: %v", err)
	}
}

// FuzzPageWrap feeds corrupted page images to Wrap: it may refuse one, but
// no reader of a page it accepts may panic. The seeds are a valid 2 KiB page
// and two corruptions of it that used to panic — a slot count of 5000, read
// at slot 4000, and slot 0 pointing at offset 2040 with length 100.
func FuzzPageWrap(f *testing.F) {
	valid := make([]byte, 2048)
	p, err := Init(valid, 1, 1, 122)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{20, 100, 7} {
		if _, err := p.InsertTuple(bytes.Repeat([]byte{byte(n)}, n)); err != nil {
			f.Fatal(err)
		}
	}
	if err := p.DeleteTuple(2); err != nil {
		f.Fatal(err)
	}
	slots := bytes.Clone(valid)
	binary.LittleEndian.PutUint16(slots[offSlotCount:], 5000)
	entry := bytes.Clone(valid)
	so := p.slotOffset(0)
	binary.LittleEndian.PutUint16(entry[so:], 2040)
	binary.LittleEndian.PutUint16(entry[so+2:], 100)
	for _, img := range [][]byte{valid, slots, entry} {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		p, err := Wrap(img)
		if err != nil {
			return
		}
		p.FreeSpace()
		for i := -1; i <= p.SlotCount(); i++ {
			p.Tuple(i)
			p.Deleted(i)
			c, err := Wrap(bytes.Clone(img))
			if err != nil {
				t.Fatalf("a copy of an accepted image is refused: %v", err)
			}
			c.UpdateTupleAt(i, 0, []byte{0xA5})
		}
	})
}
