package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchemeValidate(t *testing.T) {
	cases := []struct {
		s  Scheme
		ok bool
	}{
		{Scheme{}, true},
		{Scheme{N: 2, M: 4}, true},
		{Scheme{N: 1, M: 256}, true},
		{Scheme{N: -1, M: 4}, false},
		{Scheme{N: 2, M: 0}, false},
		{Scheme{N: 0, M: 2}, false},
		{Scheme{N: 1, M: 257}, false},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.s, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.s)
		}
	}
}

func TestSchemeSizes(t *testing.T) {
	s := Scheme{N: 2, M: 4}
	const metaLen = 48
	if got := s.RecordSize(metaLen); got != 1+3*4+48+2 {
		t.Errorf("RecordSize = %d", got)
	}
	if got := s.AreaSize(metaLen); got != 2*(1+12+48+2) {
		t.Errorf("AreaSize = %d", got)
	}
	if Disabled.AreaSize(metaLen) != 0 {
		t.Errorf("disabled scheme must have empty area")
	}
	if s.String() != "2x4" || Disabled.String() != "0x0" {
		t.Errorf("String() wrong: %s %s", s, Disabled)
	}
	if !s.Enabled() || Disabled.Enabled() {
		t.Errorf("Enabled() wrong")
	}
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	s := Scheme{N: 2, M: 4}
	metaLen := 8
	rec := DeltaRecord{
		Patches: []Patch{{Offset: 100, Value: 0xAB}, {Offset: 7, Value: 0x01}},
		Meta:    []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
	buf := make([]byte, s.RecordSize(metaLen))
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := EncodeRecord(buf, rec, s, metaLen); err != nil {
		t.Fatalf("EncodeRecord: %v", err)
	}
	got, ok := DecodeRecord(buf, s, metaLen)
	if !ok {
		t.Fatalf("DecodeRecord reported a blank slot")
	}
	if !reflect.DeepEqual(got.Patches, rec.Patches) {
		t.Fatalf("patches mismatch: %+v vs %+v", got.Patches, rec.Patches)
	}
	if !bytes.Equal(got.Meta, rec.Meta) {
		t.Fatalf("meta mismatch")
	}
}

func TestRecordEncodeErrors(t *testing.T) {
	s := Scheme{N: 1, M: 2}
	metaLen := 4
	buf := make([]byte, s.RecordSize(metaLen))
	tooMany := DeltaRecord{Patches: []Patch{{}, {}, {}}, Meta: make([]byte, metaLen)}
	if err := EncodeRecord(buf, tooMany, s, metaLen); err == nil {
		t.Errorf("expected ErrTooManyPatches")
	}
	badMeta := DeltaRecord{Meta: []byte{1}}
	if err := EncodeRecord(buf, badMeta, s, metaLen); err == nil {
		t.Errorf("expected ErrBadMeta")
	}
	small := make([]byte, 2)
	ok := DeltaRecord{Meta: make([]byte, metaLen)}
	if err := EncodeRecord(small, ok, s, metaLen); err == nil {
		t.Errorf("expected ErrAreaTooSmall")
	}
}

func TestDecodeRecordBlank(t *testing.T) {
	s := Scheme{N: 1, M: 2}
	blank := bytes.Repeat([]byte{0xFF}, s.RecordSize(4))
	if _, ok := DecodeRecord(blank, s, 4); ok {
		t.Fatalf("blank slot decoded as a record")
	}
}

func TestEncodeDecodeArea(t *testing.T) {
	s := Scheme{N: 3, M: 2}
	metaLen := 6
	meta1 := []byte{1, 1, 1, 1, 1, 1}
	meta2 := []byte{2, 2, 2, 2, 2, 2}
	records := []DeltaRecord{
		{Patches: []Patch{{Offset: 10, Value: 0xA0}}, Meta: meta1},
		{Patches: []Patch{{Offset: 20, Value: 0xB0}, {Offset: 21, Value: 0xB1}}, Meta: meta2},
	}
	area, err := EncodeArea(records, s, metaLen, 0)
	if err != nil {
		t.Fatalf("EncodeArea: %v", err)
	}
	if len(area) != s.AreaSize(metaLen) {
		t.Fatalf("area size %d", len(area))
	}
	decoded := decodeArea(area, s, metaLen)
	if len(decoded) != 2 {
		t.Fatalf("decoded %d records", len(decoded))
	}
	if n, meta := ApplyArea(make([]byte, 32), area, s, metaLen, nil); n != 2 || !bytes.Equal(meta, meta2) {
		t.Fatalf("ApplyArea saw %d records, newest Δmetadata %v", n, meta)
	}
	// Appending at a non-zero first slot leaves earlier slots blank so the
	// image can be programmed over an existing area.
	area2, err := EncodeArea(records[1:], s, metaLen, 1)
	if err != nil {
		t.Fatalf("EncodeArea offset: %v", err)
	}
	size := s.RecordSize(metaLen)
	for i := 0; i < size; i++ {
		if area2[i] != 0xFF {
			t.Fatalf("slot 0 must stay erased")
		}
	}
	if _, err := EncodeArea(records, s, metaLen, 2); err == nil {
		t.Fatalf("expected overflow error")
	}
}

func TestApplyRecords(t *testing.T) {
	page := make([]byte, 64)
	records := []DeltaRecord{
		{Patches: []Patch{{Offset: 1, Value: 10}, {Offset: 2, Value: 20}}, Meta: []byte{1}},
		{Patches: []Patch{{Offset: 2, Value: 30}}, Meta: []byte{2}},
	}
	meta := ApplyRecords(page, records)
	if page[1] != 10 || page[2] != 30 {
		t.Fatalf("patches applied in wrong order: %v", page[:4])
	}
	if len(meta) != 1 || meta[0] != 2 {
		t.Fatalf("newest metadata not returned: %v", meta)
	}
	if m := ApplyRecords(page, nil); m != nil {
		t.Fatalf("no records should return nil meta")
	}
}

// TestTrackerChunksRecords: the tracker hands out its changes as runs of at
// most M patches in ascending offset order, whatever order they were made
// in, every run carrying the Δmetadata.
func TestTrackerChunksRecords(t *testing.T) {
	s := Scheme{N: 4, M: 2}
	meta := []byte{9}
	tr := NewTracker(s, len(meta), 1024, 0)
	for _, p := range []Patch{{Offset: 5, Value: 1}, {Offset: 1, Value: 2}, {Offset: 3, Value: 3}} {
		tr.RecordChange(int(p.Offset), 0, p.Value)
	}
	recs := tr.BuildRecords(meta)
	if len(recs) != 2 || tr.Records() != 2 {
		t.Fatalf("expected 2 records, got %d (Records() = %d)", len(recs), tr.Records())
	}
	var offsets []int
	for i, r := range recs {
		if len(r.Patches) > s.M {
			t.Fatalf("record exceeds M")
		}
		if !bytes.Equal(r.Meta, meta) {
			t.Fatalf("meta not attached")
		}
		if !reflect.DeepEqual(r, tr.Record(i, meta)) {
			t.Fatalf("BuildRecords[%d] = %+v, Record(%d) = %+v", i, r, i, tr.Record(i, meta))
		}
		for _, p := range r.Patches {
			offsets = append(offsets, int(p.Offset))
		}
	}
	if !sort.IntsAreSorted(offsets) || len(offsets) != 3 {
		t.Fatalf("patches lost or unsorted: %v", offsets)
	}
	// BuildRecords copies: the tracker's next change does not reach them.
	tr.RecordChange(1, 0, 7)
	if recs[0].Patches[0] != (Patch{Offset: 1, Value: 2}) {
		t.Fatalf("BuildRecords aliases the tracker: %+v", recs[0])
	}
	// Metadata-only change still produces one record.
	tr.Reset(0)
	tr.RecordMetaChange()
	only := tr.BuildRecords(meta)
	if len(only) != 1 || len(only[0].Patches) != 0 {
		t.Fatalf("metadata-only split wrong: %+v", only)
	}
}

// TestAreaRoundTripProperty: encoding arbitrary patch sets into an area and
// applying the decoded records to an erased page reproduces exactly the
// intended byte values (last write wins per offset).
func TestAreaRoundTripProperty(t *testing.T) {
	s := Scheme{N: 8, M: 8}
	metaLen := 4
	f := func(raw []uint16, values []byte) bool {
		if len(raw) > s.N*s.M {
			raw = raw[:s.N*s.M]
		}
		want := make(map[uint16]byte)
		var patches []Patch
		for i, off := range raw {
			off %= 256
			v := byte(i)
			if i < len(values) {
				v = values[i]
			}
			patches = append(patches, Patch{Offset: off, Value: v})
			want[off] = v
		}
		// The tracker keeps one entry per offset, the last value winning.
		meta := []byte{1, 2, 3, 4}
		tr := NewTracker(s, metaLen, 256, 0)
		for _, p := range patches {
			tr.RecordChange(int(p.Offset), 0, p.Value)
		}
		for off, v := range want {
			if v == 0 {
				delete(want, off) // wrote the original value back: no change
			}
		}
		recs := tr.BuildRecords(meta)
		if len(recs) == 0 {
			return len(want) == 0 || tr.OutOfPlace()
		}
		area, err := EncodeArea(recs, s, metaLen, 0)
		if err != nil {
			return false
		}
		decoded := decodeArea(area, s, metaLen)
		page := make([]byte, 256)
		gotMeta := ApplyRecords(page, decoded)
		for off, v := range want {
			if page[off] != v {
				return false
			}
		}
		return bytes.Equal(gotMeta, meta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("area round-trip property: %v", err)
	}
}

// decodeArea parses every programmed record of a delta-record area, in
// append order.
func decodeArea(area []byte, s Scheme, metaLen int) []DeltaRecord {
	if !s.Enabled() {
		return nil
	}
	size := s.RecordSize(metaLen)
	var out []DeltaRecord
	for slot := 0; slot < s.N && (slot+1)*size <= len(area); slot++ {
		rec, ok := DecodeRecord(area[slot*size:(slot+1)*size], s, metaLen)
		if !ok {
			// Records are appended strictly in slot order, so the first
			// blank slot terminates the scan.
			break
		}
		out = append(out, rec)
	}
	return out
}
