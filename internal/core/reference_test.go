package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"testing"
)

// refTracker is the tracker as it was before the flat representation: a map
// from offset to the byte's on-Flash and current value, sorted and cut into
// records at eviction. It is the model FuzzTrackerMatchesReference holds the
// Tracker to.
type refTracker struct {
	scheme   Scheme
	existing int
	bodyLen  int

	outOfPlace  bool
	metaChanged bool
	changes     map[uint16]refByte
}

type refByte struct{ old, new byte }

func newRefTracker(scheme Scheme, bodyLen, existing int) *refTracker {
	t := &refTracker{scheme: scheme, bodyLen: bodyLen}
	t.reset(existing)
	return t
}

func (t *refTracker) reset(existing int) {
	t.existing = existing
	t.outOfPlace = !t.scheme.Enabled() || existing >= t.scheme.N
	t.metaChanged = false
	t.changes = nil
	if t.scheme.Enabled() {
		t.changes = make(map[uint16]refByte)
	}
}

func (t *refTracker) markOutOfPlace() {
	t.outOfPlace = true
	t.changes = nil
}

func (t *refTracker) recordChange(offset int, old, new byte) {
	if t.outOfPlace || old == new {
		return
	}
	if offset < 0 || offset >= t.bodyLen || offset > int(^uint16(0)) {
		t.markOutOfPlace()
		return
	}
	off := uint16(offset)
	if prev, ok := t.changes[off]; !ok {
		t.changes[off] = refByte{old: old, new: new}
	} else if prev.old == new {
		delete(t.changes, off)
	} else {
		t.changes[off] = refByte{old: prev.old, new: new}
	}
	if !t.fits() {
		t.markOutOfPlace()
	}
}

func (t *refTracker) recordWrite(offset int, old, new []byte) {
	for i := range new {
		if t.outOfPlace {
			return
		}
		t.recordChange(offset+i, old[i], new[i])
	}
}

func (t *refTracker) recordsNeeded() int {
	if !t.scheme.Enabled() {
		return t.scheme.N + 1
	}
	if len(t.changes) == 0 {
		if t.metaChanged {
			return 1
		}
		return 0
	}
	return (len(t.changes) + t.scheme.M - 1) / t.scheme.M
}

func (t *refTracker) fits() bool     { return t.recordsNeeded() <= t.scheme.N-t.existing }
func (t *refTracker) dirty() bool    { return t.metaChanged || len(t.changes) > 0 }
func (t *refTracker) eligible() bool { return t.scheme.Enabled() && !t.outOfPlace && t.fits() }
func (t *refTracker) net() int       { return len(t.changes) }

// records sorts the map's patches and cuts them into records of at most M.
func (t *refTracker) records(meta []byte) []DeltaRecord {
	if !t.eligible() || !t.dirty() {
		return nil
	}
	sorted := make([]Patch, 0, len(t.changes))
	for off, ch := range t.changes {
		sorted = append(sorted, Patch{Offset: off, Value: ch.new})
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Offset < sorted[j].Offset })
	var out []DeltaRecord
	for len(sorted) > 0 {
		n := min(t.scheme.M, len(sorted))
		out = append(out, DeltaRecord{Patches: sorted[:n:n], Meta: meta})
		sorted = sorted[n:]
	}
	if len(out) == 0 {
		out = append(out, DeltaRecord{Meta: meta})
	}
	return out
}

func (t *refTracker) restoreOriginal(buffered []byte) []byte {
	img := bytes.Clone(buffered)
	for off, ch := range t.changes {
		if int(off) < len(img) {
			img[off] = ch.old
		}
	}
	return img
}

// encodeAll encodes records back to back, as the storage manager appends them.
func encodeAll(t *testing.T, records []DeltaRecord, s Scheme, metaLen int) []byte {
	size := s.RecordSize(metaLen)
	out := make([]byte, size*len(records))
	for i, rec := range records {
		if err := EncodeRecord(out[i*size:(i+1)*size], rec, s, metaLen); err != nil {
			t.Fatalf("EncodeRecord: %v", err)
		}
	}
	return out
}

// FuzzTrackerMatchesReference drives a Tracker and the map model with one
// stream of writes, reverts, metadata changes, resets and out-of-place marks
// over a simulated buffered page and requires the same flags, the same net
// changed bytes, the same encoded delta records and the same restored
// on-Flash image after every step. One Tracker is re-initialised for every
// input, as a buffer frame's is for every residency.
func FuzzTrackerMatchesReference(f *testing.F) {
	// Header: N−1, index of M, 7 = IPA disabled, existing, index of the
	// body length; then operations (see the switch below).
	// 2×4 on a 1 KiB body: writes in descending offset order, a partial
	// revert, metadata, a reset to one used slot, an overflow of the last
	// slot, a mark and an out-of-body write.
	f.Add([]byte{1, 2, 0, 0, 1, 0, 0, 10, 3, 1, 2, 3, 4, 0, 0, 5, 1, 9, 9, 0, 0, 12, 0, 8, 1, 0, 11, 1, 2, 3, 1, 0, 0, 20, 7, 1, 2, 3, 4, 5, 6, 7, 8, 4, 0, 4, 6, 0, 5})
	// 1×256 on a 40 000-byte body: bulk writes that overflow the record.
	f.Add([]byte{0, 4, 0, 0, 2, 5, 0, 0, 255, 5, 0x30, 0, 255, 1, 0, 5, 7, 3, 0, 5, 0, 100, 3, 0, 0, 100, 2, 7, 7, 7})
	// 4×20: the changes leave the inline arrays, fit, then overflow two slots.
	f.Add([]byte{3, 3, 0, 0, 1, 5, 0, 40, 0, 1, 0, 50, 7, 3, 2, 5, 0, 200, 0})
	// IPA disabled: nothing is tracked, metadata and resets still are.
	f.Add([]byte{1, 2, 7, 0, 0, 0, 0, 3, 2, 1, 2, 3, 2, 1, 0, 3, 1, 3, 0, 0, 0, 60, 0, 9})
	// Every record slot already used, then a reset that frees them.
	f.Add([]byte{1, 2, 0, 2, 0, 0, 0, 1, 1, 7, 2, 3, 0, 0, 0, 1, 1, 7, 2})
	var tr Tracker // re-initialised for every input, as a buffer frame's is
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		s := Scheme{N: next()%4 + 1, M: []int{1, 2, 4, 20, 256}[next()%5]}
		if next()%8 == 7 {
			s = Disabled
		}
		existing := next() % (s.N + 1)
		bodyLen := []int{64, 1024, 40000}[next()%3]
		const metaLen = 4
		meta := []byte{0xA1, 0xA2, 0xA3, 0xA4}

		flash := make([]byte, bodyLen+16) // the tail lies outside the body
		for i := range flash {
			flash[i] = byte(i * 7)
		}
		buf := bytes.Clone(flash)
		tr.Init(s, bodyLen, existing)
		ref := newRefTracker(s, bodyLen, existing)
		img := make([]byte, len(buf))

		write := func(off int, new []byte) {
			off %= len(buf)
			new = new[:min(len(new), len(buf)-off)]
			tr.RecordWrite(off, buf[off:off+len(new)], new)
			ref.recordWrite(off, buf[off:off+len(new)], new)
			copy(buf[off:], new)
		}
		for step := 0; len(in) > 0; step++ {
			switch op := next() % 6; op {
			case 0: // small write
				off, n := next()<<8|next(), next()%8+1
				new := make([]byte, n)
				for i := range new {
					new[i] = byte(next())
				}
				write(off, new)
			case 1: // write the on-Flash bytes back
				off, n := (next()<<8|next())%len(buf), next()%8+1
				write(off, bytes.Clone(flash[off:min(off+n, len(flash))]))
			case 2:
				tr.RecordMetaChange()
				ref.metaChanged = true
			case 3: // the page was stored: what is buffered is now on Flash
				existing = next() % (s.N + 1)
				tr.Reset(existing)
				ref.reset(existing)
				copy(flash, buf)
			case 4:
				tr.MarkOutOfPlace()
				ref.markOutOfPlace()
			case 5: // bulk write: every byte of a long range changes
				off, n := (next()<<8|next())%len(buf), (next()+1)*64
				new := bytes.Clone(buf[off:min(off+n, len(buf))])
				for i := range new {
					new[i] ^= byte(next() | 1)
				}
				write(off, new)
			}
			if tr.Dirty() != ref.dirty() || tr.Eligible() != ref.eligible() || tr.OutOfPlace() != ref.outOfPlace ||
				tr.NetChangedBytes() != ref.net() || tr.MetaChanged() != ref.metaChanged || tr.Existing() != ref.existing {
				t.Fatalf("step %d: dirty %v/%v eligible %v/%v out-of-place %v/%v net %d/%d meta %v/%v existing %d/%d (tracker/model)",
					step, tr.Dirty(), ref.dirty(), tr.Eligible(), ref.eligible(), tr.OutOfPlace(), ref.outOfPlace,
					tr.NetChangedBytes(), ref.net(), tr.MetaChanged(), ref.metaChanged, tr.Existing(), ref.existing)
			}
			want := ref.records(meta)
			if tr.Records() != len(want) {
				t.Fatalf("step %d: Records() = %d, model builds %d", step, tr.Records(), len(want))
			}
			aliased := make([]DeltaRecord, tr.Records())
			for i := range aliased {
				aliased[i] = tr.Record(i, meta)
			}
			wantBytes := encodeAll(t, want, s, metaLen)
			if got := encodeAll(t, aliased, s, metaLen); !bytes.Equal(got, wantBytes) {
				t.Fatalf("step %d: encoded records differ:\n tracker %x\n model   %x", step, got, wantBytes)
			}
			if got := encodeAll(t, tr.BuildRecords(meta), s, metaLen); !bytes.Equal(got, wantBytes) {
				t.Fatalf("step %d: BuildRecords encodes differently:\n tracker %x\n model   %x", step, got, wantBytes)
			}
			tr.RestoreOriginal(img, buf)
			if !bytes.Equal(img, ref.restoreOriginal(buf)) {
				t.Fatalf("step %d: RestoreOriginal differs from the model's", step)
			}
			if !tr.OutOfPlace() && !bytes.Equal(img, flash) {
				t.Fatalf("step %d: RestoreOriginal of a tracked page is not the on-Flash image", step)
			}
		}
	})
}

// FuzzApplyAreaMatchesDecode holds ApplyArea — page reconstruction straight
// from the delta-record area — to the decode-then-apply path it replaced,
// DecodeArea + ApplyRecords: on an area of records built from the input, on
// that area torn after every byte (a power cut mid-append) and with every
// bit flipped in turn, and on the raw input taken as an area, both must
// leave the same page, see the same number of records and return the same
// Δmetadata, so ApplyArea never applies a record the decoder rejects.
func FuzzApplyAreaMatchesDecode(f *testing.F) {
	f.Add([]byte{1, 2, 3, 10, 0, 0xAB, 20, 0, 0xCD, 30, 0, 0xEF, 5, 0, 1, 99, 0, 2})
	f.Add([]byte{3, 0, 0, 7, 0, 7, 44, 1, 9}) // the second patch lies past the body
	f.Add([]byte{0, 0, 2, 8, 0, 1})           // 1×1 with its only slot used
	f.Add(append([]byte{0, 4, 1, ctrlPresent}, bytes.Repeat([]byte{0xFF, 0x5A, 0xC3, 0x00}, 40)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		s := Scheme{N: int(in[0])%4 + 1, M: []int{1, 2, 4, 20}[in[1]%4]}
		metaLen := int(in[2]) % 9
		in = in[3:]
		const bodyLen = 300
		size := s.RecordSize(metaLen)

		// The body starts patterned; the tracker ApplyArea fills must
		// restore it.
		check := func(what string, area []byte) {
			orig := make([]byte, bodyLen)
			for i := range orig {
				orig[i] = byte(i * 7)
			}
			got, want, back := bytes.Clone(orig), bytes.Clone(orig), make([]byte, bodyLen)
			var tr Tracker
			tr.Init(s, bodyLen, 0)
			n, meta := ApplyArea(got, area, s, metaLen, &tr)
			records := decodeArea(area, s, metaLen)
			wantMeta := ApplyRecords(want, records)
			if n != len(records) || !bytes.Equal(got, want) || !bytes.Equal(meta, wantMeta) || (meta == nil) != (wantMeta == nil) {
				t.Fatalf("%s: ApplyArea saw %d records (Δmetadata %x), the decoder %d (%x); pages equal: %v\narea %x",
					what, n, meta, len(records), wantMeta, bytes.Equal(got, want), area)
			}
			if tr.RestoreOriginal(back, got); !bytes.Equal(back, orig) {
				t.Fatalf("%s: RestoreOriginal does not undo the applied records\narea %x", what, area)
			}
		}
		check("raw input", in)

		// Records from the input: three bytes a patch, M patches a record,
		// every fourth patch slot left unused.
		var records []DeltaRecord
		for len(records) < s.N && len(in) >= 3 {
			rec := DeltaRecord{Meta: bytes.Repeat([]byte{byte(len(records) + 1)}, metaLen)}
			for len(rec.Patches) < s.M && len(in) >= 3 {
				if off := binary.LittleEndian.Uint16(in); off%4 != 3 {
					rec.Patches = append(rec.Patches, Patch{Offset: off % (bodyLen + 20), Value: in[2]})
				}
				in = in[3:]
			}
			records = append(records, rec)
		}
		area, err := EncodeArea(records, s, metaLen, 0)
		if err != nil {
			t.Fatalf("EncodeArea: %v", err)
		}
		check("whole area", area)
		if n, _ := ApplyArea(make([]byte, bodyLen), area, s, metaLen, nil); n != len(records) {
			t.Fatalf("ApplyArea saw %d of %d encoded records", n, len(records))
		}
		programmed := len(records) * size
		for cut := 0; cut < programmed; cut++ {
			torn := slices.Concat(area[:cut], bytes.Repeat([]byte{0xFF}, len(area)-cut))
			check("torn", torn)
			if n, _ := ApplyArea(make([]byte, bodyLen), torn, s, metaLen, nil); n != cut/size {
				t.Fatalf("area torn after byte %d of %d-byte records: %d records applied, want %d", cut, size, n, cut/size)
			}
		}
		for bit := 0; bit < programmed*8; bit++ {
			area[bit/8] ^= 1 << (bit % 8)
			check("bit flip", area)
			if n, _ := ApplyArea(make([]byte, bodyLen), area, s, metaLen, nil); n != bit/8/size {
				t.Fatalf("bit %d flipped: %d records applied, want the %d before it", bit, n, bit/8/size)
			}
			area[bit/8] ^= 1 << (bit % 8)
		}
		check("short area", area[:len(area)-1])
		check("over-long area", slices.Concat(area, area)) // slots past N are not read
	})
}
