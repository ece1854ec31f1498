package core

import (
	"encoding/binary"
	"fmt"
)

// Patch is one byte-granular change: the byte at Offset (relative to the
// start of the database page) takes the value Value.
type Patch struct {
	Offset uint16
	Value  byte
}

// DeltaRecord is the unit appended to the delta-record area of a Flash page
// on eviction. It coalesces the changes of one buffer-pool residency of the
// page: up to M byte patches of the page body plus the up-to-date copy of
// the page metadata (header and footer), called Δmetadata in the paper.
type DeltaRecord struct {
	Patches []Patch
	Meta    []byte
}

// EncodedSize returns the number of bytes the record occupies on the page
// under the given scheme.
func (r DeltaRecord) EncodedSize(s Scheme) int { return s.RecordSize(len(r.Meta)) }

// EncodeRecord serialises rec into dst using the layout of Figure 3,
// extended with an integrity trailer:
//
//	[ctrl 1][off lo, off hi, value] × M [Δmetadata metaLen][checksum 1][commit 1]
//
// Unused patch slots carry the offset 0xFFFF. The commit marker is the last
// byte of the record; NAND programs torn by a power cut persist only a
// prefix, so a record missing its marker (or failing its checksum) is
// rejected by DecodeRecord. dst must be at least RecordSize(metaLen) bytes;
// the remainder is left untouched.
func EncodeRecord(dst []byte, rec DeltaRecord, s Scheme, metaLen int) error {
	if len(rec.Patches) > s.M {
		return fmt.Errorf("%w: %d > M=%d", ErrTooManyPatches, len(rec.Patches), s.M)
	}
	if len(rec.Meta) != metaLen {
		return fmt.Errorf("%w: got %d, want %d", ErrBadMeta, len(rec.Meta), metaLen)
	}
	need := s.RecordSize(metaLen)
	if len(dst) < need {
		return fmt.Errorf("%w: %d < %d", ErrAreaTooSmall, len(dst), need)
	}
	dst[0] = ctrlPresent
	pos := 1
	for i := 0; i < s.M; i++ {
		if i < len(rec.Patches) {
			binary.LittleEndian.PutUint16(dst[pos:], rec.Patches[i].Offset)
			dst[pos+2] = rec.Patches[i].Value
		} else {
			binary.LittleEndian.PutUint16(dst[pos:], unusedOffset)
			dst[pos+2] = 0xFF
		}
		pos += patchSize
	}
	copy(dst[pos:pos+metaLen], rec.Meta)
	pos += metaLen
	dst[pos] = recordChecksum(dst[:pos])
	dst[pos+1] = ctrlCommit
	return nil
}

// validRecord reports whether src starts with a complete, verified record:
// programmed, carrying its commit marker and passing its checksum. Blank
// (erased) slots, records torn by a power cut and corrupted records fail.
func validRecord(src []byte, s Scheme, metaLen int) bool {
	need := s.RecordSize(metaLen)
	return len(src) >= need && src[0] == ctrlPresent &&
		src[need-1] == ctrlCommit && src[need-2] == recordChecksum(src[:need-2])
}

// DecodeRecord parses one record slot. The second return value reports
// whether the slot holds a complete, verified record (validRecord).
func DecodeRecord(src []byte, s Scheme, metaLen int) (DeltaRecord, bool) {
	if !validRecord(src, s, metaLen) {
		return DeltaRecord{}, false
	}
	rec := DeltaRecord{Meta: make([]byte, metaLen)}
	pos := 1
	for i := 0; i < s.M; i++ {
		off := binary.LittleEndian.Uint16(src[pos:])
		if off != unusedOffset {
			rec.Patches = append(rec.Patches, Patch{Offset: off, Value: src[pos+2]})
		}
		pos += patchSize
	}
	copy(rec.Meta, src[pos:pos+metaLen])
	return rec, true
}

// EncodeArea serialises records into a fresh delta-record area image of
// AreaSize bytes, starting at record slot firstSlot. Slots before firstSlot
// and after the encoded records are left in the erased state (0xFF) so the
// image can be programmed over an existing area without violating the
// bit-clear-only rule.
func EncodeArea(records []DeltaRecord, s Scheme, metaLen, firstSlot int) ([]byte, error) {
	area := make([]byte, s.AreaSize(metaLen))
	for i := range area {
		area[i] = 0xFF
	}
	if firstSlot < 0 || firstSlot+len(records) > s.N {
		return nil, fmt.Errorf("%w: records [%d,%d) exceed N=%d", ErrAreaTooSmall, firstSlot, firstSlot+len(records), s.N)
	}
	size := s.RecordSize(metaLen)
	for i, rec := range records {
		off := (firstSlot + i) * size
		if err := EncodeRecord(area[off:off+size], rec, s, metaLen); err != nil {
			return nil, err
		}
	}
	return area, nil
}

// ApplyRecords applies the body patches of every record (in append order)
// to page and returns the Δmetadata of the newest record, or nil if records
// is empty. The caller is responsible for installing the returned metadata
// into the page header and footer.
func ApplyRecords(page []byte, records []DeltaRecord) []byte {
	var meta []byte
	for _, rec := range records {
		for _, p := range rec.Patches {
			if int(p.Offset) < len(page) {
				page[int(p.Offset)] = p.Value
			}
		}
		if rec.Meta != nil {
			meta = rec.Meta
		}
	}
	return meta
}

// ApplyArea is page reconstruction where the bytes lie: it applies the body
// patches of every complete record of a delta-record area to body, in append
// order, without decoding them into DeltaRecords. It returns the number of
// records applied and the Δmetadata of the newest, which aliases area (nil
// if there is none); the caller installs it into the page header and footer.
// body is the patchable page prefix and must not overlap area. A non-nil t
// keeps the prior value of every byte applied, for RestoreOriginal.
func ApplyArea(body, area []byte, s Scheme, metaLen int, t *Tracker) (records int, meta []byte) {
	if !s.Enabled() {
		return 0, nil
	}
	size := s.RecordSize(metaLen)
	for ; records < s.N && len(area) >= size; records, area = records+1, area[size:] {
		// Records are appended strictly in slot order, so the first slot
		// without a complete record terminates the scan.
		if !validRecord(area, s, metaLen) {
			break
		}
		pos := 1
		for i := 0; i < s.M; i, pos = i+1, pos+patchSize {
			off := int(binary.LittleEndian.Uint16(area[pos:]))
			if off != int(unusedOffset) && off < len(body) {
				if t != nil {
					t.keepFlash(off, body[off])
				}
				body[off] = area[pos+2]
			}
		}
		meta = area[pos : pos+metaLen : pos+metaLen]
	}
	return records, meta
}
