// Package page implements the NSM (N-ary Storage Model) slotted page layout
// used by the storage engine, extended with the delta-record area required
// by In-Place Appends (Figure 3 of the paper).
//
// A page of size P is laid out as:
//
//	[ header | tuple data ->     ...     <- slot array | delta-record area | footer ]
//	0        32                                        P-F-D               P-F      P
//
// where D is the delta-record area size chosen by the region's N×M scheme
// and F is the footer size. Tuples grow upward from the header; the slot
// array grows downward towards the tuples. The delta-record area is never
// touched by normal page operations: it exists so the page image can gain
// appended delta records on Flash without relocating any content.
//
// All mutating operations report their byte-level effects to an optional
// core.Tracker, the buffer frame's change tracking, which is how small
// in-place updates become delta records.
package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ipa/internal/core"
)

// Layout constants.
const (
	// HeaderSize is the fixed page header size in bytes.
	HeaderSize = 32
	// FooterSize is the fixed page footer size in bytes.
	FooterSize = 16
	// MetaSize is the combined header+footer size; it is the length of the
	// Δmetadata carried by every delta record.
	MetaSize = HeaderSize + FooterSize
	// SlotSize is the size of one slot-array entry.
	SlotSize = 4

	// magic identifies an initialised page (stored in the footer).
	magic uint32 = 0x49504131 // "IPA1"
	// deletedLen marks a deleted slot.
	deletedLen uint16 = 0xFFFF
)

// Header field offsets.
const (
	offPageID    = 0  // uint64
	offObjectID  = 8  // uint32
	offLSN       = 12 // uint64
	offSlotCount = 20 // uint16
	offFreePtr   = 22 // uint16
	offFlags     = 24 // uint16
	offDeltaSize = 26 // uint16
	offSpare     = 28 // uint32
)

// Footer field offsets (relative to footer start).
const (
	offFooterLSN   = 0 // uint64
	offFooterMagic = 8 // uint32
	offFooterSpare = 12
)

// Flags stored in the page header.
const (
	// FlagOutOfPlace is the paper's out-of-place flag: set while the page
	// is buffered once its accumulated changes no longer conform to the
	// N×M scheme. It is cleared when the page is written out.
	FlagOutOfPlace uint16 = 1 << 0
	// FlagIndex marks a primary-key index entry page (the page kind used
	// by internal/index), distinguishing it from heap pages on Flash.
	FlagIndex uint16 = 1 << 1
)

// Errors returned by page operations.
var (
	// ErrPageFull is returned when a tuple does not fit the free space.
	ErrPageFull = errors.New("page: not enough free space")
	// ErrBadSlot is returned for slot numbers that do not exist.
	ErrBadSlot = errors.New("page: invalid slot")
	// ErrDeleted is returned when addressing a deleted tuple.
	ErrDeleted = errors.New("page: tuple deleted")
	// ErrBadUpdate is returned for updates that do not fit the tuple.
	ErrBadUpdate = errors.New("page: update outside tuple bounds")
	// ErrTooSmall is returned when the page buffer cannot hold the layout.
	ErrTooSmall = errors.New("page: buffer too small for layout")
	// ErrNotInitialized is returned when wrapping a buffer that does not
	// contain an initialised page, or one whose layout does not fit it.
	ErrNotInitialized = errors.New("page: buffer does not hold an initialised page")
)

// Page wraps a byte buffer holding one NSM slotted page.
type Page struct {
	buf []byte
	rec *core.Tracker
}

// Init formats buf as an empty page belonging to the given object, with a
// delta-record area of deltaAreaSize bytes, and returns the wrapped page.
func Init(buf []byte, pageID uint64, objectID uint32, deltaAreaSize int) (*Page, error) {
	minSize := HeaderSize + FooterSize + deltaAreaSize + SlotSize
	if len(buf) < minSize {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooSmall, len(buf), minSize)
	}
	if deltaAreaSize < 0 || deltaAreaSize > int(^uint16(0)) {
		return nil, fmt.Errorf("page: invalid delta area size %d", deltaAreaSize)
	}
	for i := range buf {
		buf[i] = 0
	}
	p := &Page{buf: buf}
	binary.LittleEndian.PutUint64(buf[offPageID:], pageID)
	binary.LittleEndian.PutUint32(buf[offObjectID:], objectID)
	binary.LittleEndian.PutUint16(buf[offSlotCount:], 0)
	binary.LittleEndian.PutUint16(buf[offFreePtr:], HeaderSize)
	binary.LittleEndian.PutUint16(buf[offDeltaSize:], uint16(deltaAreaSize))
	binary.LittleEndian.PutUint32(buf[p.footerStart()+offFooterMagic:], magic)
	return p, nil
}

// Wrap interprets buf as an already initialised page. It refuses an image
// whose delta-record area or slot array does not fit the page, so no reader
// of a wrapped page indexes outside it. Wrap is as large as the compiler
// inlines: inlined, the page it returns lives on its caller's stack, which
// the miss path's allocation tests pin.
func Wrap(buf []byte) (*Page, error) {
	if len(buf) < HeaderSize+FooterSize {
		return nil, ErrTooSmall
	}
	p := &Page{buf: buf}
	if binary.LittleEndian.Uint32(buf[p.footerStart()+offFooterMagic:]) != magic ||
		HeaderSize+p.SlotCount()*SlotSize > p.BodyEnd() {
		return nil, ErrNotInitialized
	}
	return p, nil
}

// SetRecorder installs the tracker that records the page's changes; nil
// disables recording.
func (p *Page) SetRecorder(r *core.Tracker) { p.rec = r }

// Buf returns the underlying buffer.
func (p *Page) Buf() []byte { return p.buf }

// ID returns the page identifier.
func (p *Page) ID() uint64 { return binary.LittleEndian.Uint64(p.buf[offPageID:]) }

// ObjectID returns the owning database object (table) identifier.
func (p *Page) ObjectID() uint32 { return binary.LittleEndian.Uint32(p.buf[offObjectID:]) }

// LSN returns the page LSN from the header.
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf[offLSN:]) }

// Flags returns the header flags.
func (p *Page) Flags() uint16 { return binary.LittleEndian.Uint16(p.buf[offFlags:]) }

// SetFlags replaces the header flags (a metadata change).
func (p *Page) SetFlags(f uint16) {
	binary.LittleEndian.PutUint16(p.buf[offFlags:], f)
	p.metaChanged()
}

// DeltaAreaSize returns the size of the reserved delta-record area.
func (p *Page) DeltaAreaSize() int {
	return int(binary.LittleEndian.Uint16(p.buf[offDeltaSize:]))
}

// SlotCount returns the number of slots (including deleted ones).
func (p *Page) SlotCount() int {
	return int(binary.LittleEndian.Uint16(p.buf[offSlotCount:]))
}

func (p *Page) freePtr() int { return int(binary.LittleEndian.Uint16(p.buf[offFreePtr:])) }

func (p *Page) setHeaderU16(off int, v uint16) {
	binary.LittleEndian.PutUint16(p.buf[off:], v)
	p.metaChanged()
}

func (p *Page) metaChanged() {
	if p.rec != nil {
		p.rec.RecordMetaChange()
	}
}

// footerStart returns the offset of the footer.
func (p *Page) footerStart() int { return len(p.buf) - FooterSize }

// DeltaAreaStart returns the offset of the delta-record area. It is also
// the end of the region that byte patches may address (BodyEnd).
func (p *Page) DeltaAreaStart() int { return p.footerStart() - p.DeltaAreaSize() }

// BodyEnd returns the length of the page prefix that delta-record patches
// may address.
func (p *Page) BodyEnd() int { return p.DeltaAreaStart() }

// DeltaArea returns the delta-record area as a sub-slice of the page.
func (p *Page) DeltaArea() []byte {
	return p.buf[p.DeltaAreaStart():p.footerStart()]
}

// slotArrayEnd returns the exclusive upper bound of the slot array.
func (p *Page) slotArrayEnd() int { return p.DeltaAreaStart() }

// slotOffset returns the buffer offset of slot i's entry.
func (p *Page) slotOffset(i int) int { return p.slotArrayEnd() - (i+1)*SlotSize }

func (p *Page) slot(i int) (off, length int, err error) {
	if i < 0 || i >= p.SlotCount() {
		return 0, 0, fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.SlotCount())
	}
	so := p.slotOffset(i)
	off = int(binary.LittleEndian.Uint16(p.buf[so:]))
	length = int(binary.LittleEndian.Uint16(p.buf[so+2:]))
	end := off + length
	if uint16(length) == deletedLen {
		end = off + 1
	}
	if off < HeaderSize || end > p.BodyEnd() {
		return 0, 0, fmt.Errorf("%w: slot %d holds [%d,%d), outside the body", ErrBadSlot, i, off, off+length)
	}
	return off, length, nil
}

// FreeSpace returns the number of bytes available for one more tuple
// (accounting for its slot entry).
func (p *Page) FreeSpace() int {
	free := p.slotOffset(p.SlotCount()) - p.freePtr()
	if free < 0 {
		return 0
	}
	return free
}

// InsertTuple stores data in the page and returns its slot number. The
// inserted bytes and the new slot entry are reported as body changes.
func (p *Page) InsertTuple(data []byte) (int, error) {
	if len(data) == 0 || len(data) >= int(deletedLen) {
		return 0, fmt.Errorf("page: tuple size %d unsupported", len(data))
	}
	need := len(data) + SlotSize
	if p.FreeSpace() < need {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrPageFull, need, p.FreeSpace())
	}
	slot := p.SlotCount()
	off := p.freePtr()
	p.bodyWrite(off, data)
	so := p.slotOffset(slot)
	var entry [SlotSize]byte
	binary.LittleEndian.PutUint16(entry[0:], uint16(off))
	binary.LittleEndian.PutUint16(entry[2:], uint16(len(data)))
	p.bodyWrite(so, entry[:])
	p.setHeaderU16(offSlotCount, uint16(slot+1))
	p.setHeaderU16(offFreePtr, uint16(off+len(data)))
	return slot, nil
}

// Tuple returns a copy of the tuple stored in slot i.
func (p *Page) Tuple(i int) ([]byte, error) {
	t, err := p.TupleBytes(i)
	return bytes.Clone(t), err
}

// TupleBytes returns the tuple stored in slot i as the page holds it: the
// slice aliases the page buffer and must not be written or kept.
func (p *Page) TupleBytes(i int) ([]byte, error) {
	off, length, err := p.slot(i)
	if err != nil {
		return nil, err
	}
	if uint16(length) == deletedLen {
		return nil, fmt.Errorf("%w: slot %d", ErrDeleted, i)
	}
	return p.buf[off : off+length : off+length], nil
}

// UpdateTupleAt overwrites len(data) bytes of the tuple in slot i starting
// at tuple-relative offset off. This is the in-place small update that IPA
// turns into delta records.
func (p *Page) UpdateTupleAt(i, off int, data []byte) error {
	toff, tlen, err := p.slot(i)
	if err != nil {
		return err
	}
	if uint16(tlen) == deletedLen {
		return fmt.Errorf("%w: slot %d", ErrDeleted, i)
	}
	if off < 0 || off+len(data) > tlen {
		return fmt.Errorf("%w: [%d,%d) in tuple of %d bytes", ErrBadUpdate, off, off+len(data), tlen)
	}
	p.bodyWrite(toff+off, data)
	return nil
}

// RestoreTuple rewrites slot i during recovery: the slot's live length and
// the tuple bytes are installed regardless of the slot's previous (possibly
// deleted) state. The slot must already exist with a valid offset — redo
// creates missing slots with InsertTuple first.
func (p *Page) RestoreTuple(i int, data []byte) error {
	if i < 0 || i >= p.SlotCount() {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.SlotCount())
	}
	so := p.slotOffset(i)
	off := int(binary.LittleEndian.Uint16(p.buf[so:]))
	if off < HeaderSize || off+len(data) > p.BodyEnd() {
		return fmt.Errorf("%w: slot %d offset %d", ErrBadSlot, i, off)
	}
	var entry [2]byte
	binary.LittleEndian.PutUint16(entry[:], uint16(len(data)))
	p.bodyWrite(so+2, entry[:])
	p.bodyWrite(off, data)
	return nil
}

// DeleteTuple marks the tuple in slot i as deleted. The space is not
// compacted (NSM pages are compacted lazily by reorganisation, which the
// OLTP workloads here never need).
func (p *Page) DeleteTuple(i int) error {
	_, tlen, err := p.slot(i)
	if err != nil {
		return err
	}
	if uint16(tlen) == deletedLen {
		return fmt.Errorf("%w: slot %d", ErrDeleted, i)
	}
	so := p.slotOffset(i)
	var entry [2]byte
	binary.LittleEndian.PutUint16(entry[:], deletedLen)
	p.bodyWrite(so+2, entry[:])
	return nil
}

// Deleted reports whether slot i holds a deleted tuple.
func (p *Page) Deleted(i int) (bool, error) {
	_, length, err := p.slot(i)
	if err != nil {
		return false, err
	}
	return uint16(length) == deletedLen, nil
}

// bodyWrite copies data into the page body at offset and reports the
// change to the tracker before the page's own bytes are overwritten.
func (p *Page) bodyWrite(offset int, data []byte) {
	if p.rec != nil {
		p.rec.RecordWrite(offset, p.buf[offset:offset+len(data)], data)
	}
	copy(p.buf[offset:], data)
}

// Meta returns the Δmetadata image of the page: the concatenation of header
// and footer (MetaSize bytes).
func (p *Page) Meta() []byte { return p.MetaInto(make([]byte, MetaSize)) }

// MetaInto is Meta into the caller's dst, which must hold MetaSize bytes; it
// returns dst[:MetaSize].
func (p *Page) MetaInto(dst []byte) []byte {
	dst = dst[:MetaSize]
	copy(dst, p.buf[:HeaderSize])
	copy(dst[HeaderSize:], p.buf[p.footerStart():])
	return dst
}

// ApplyMeta installs a Δmetadata image (header and footer) taken from a
// delta record. The delta-area size is preserved from the existing header
// to protect the layout against corrupted metadata.
func (p *Page) ApplyMeta(meta []byte) error {
	if len(meta) != MetaSize {
		return fmt.Errorf("page: Δmetadata is %d bytes, want %d", len(meta), MetaSize)
	}
	deltaSize := p.DeltaAreaSize()
	copy(p.buf[:HeaderSize], meta[:HeaderSize])
	copy(p.buf[p.footerStart():], meta[HeaderSize:])
	binary.LittleEndian.PutUint16(p.buf[offDeltaSize:], uint16(deltaSize))
	return nil
}

// ResetDeltaArea fills the delta-record area with the erased byte 0xFF so a
// freshly (re)written page image can later take in-place appends.
func (p *Page) ResetDeltaArea() {
	area := p.DeltaArea()
	for i := range area {
		area[i] = 0xFF
	}
}
