package core

import "slices"

// Tracker records the byte-granular changes applied to a buffered database
// page between the moment it was faulted in (or last flushed) and its
// eviction. The buffer manager feeds every in-place update into the
// tracker; on eviction the storage manager asks the tracker whether the
// page still conforms to the region's N×M scheme and, if so, obtains the
// delta records to append.
//
// Following the paper, the tracker stops recording as soon as the scheme is
// violated ("the out-of-place flag is set, and further updates are not
// tracked until eviction"), which keeps the bookkeeping overhead minimal.
//
// A Tracker is reused in place (Init) and refers to its own inline arrays:
// it must not be copied.
type Tracker struct {
	scheme   Scheme
	existing int // delta records already present on the Flash page
	bodyLen  int // bytes of the page covered by patches (header..end of body)

	outOfPlace  bool
	metaChanged bool

	// patches are the net changes of the residency in ascending offset
	// order — the byte at Offset differs from the on-Flash image and now
	// holds Value — and olds[i] is the on-Flash value of patches[i].Offset.
	// They are two arrays so that a run of M patches is a delta record's
	// patch list as it stands (Record). The out-of-place flag is set, and
	// tracking stops, with the entry that no longer fits: at most
	// (N−existing)·M + 1 entries, which for the paper's 2×4 the inline
	// arrays hold. A larger scheme grows onto the heap once; Init and Reset
	// keep that backing.
	patches       []Patch
	olds          []byte
	inlinePatches [inlineChanges]Patch
	inlineOlds    [inlineChanges]byte

	// flash holds, for every body byte the page's on-Flash delta records
	// change, its value in the Flash body: the records' bytes are in the
	// buffered body and not there. It is filled as the load applies the
	// records and as the residency's appends land, at most N·M entries.
	flash       []Patch
	inlineFlash [inlineChanges]Patch

	// originalMeta is the header/footer image as it is physically stored
	// on the Flash page. The storage manager needs it to rebuild the
	// on-Flash image for the IPA-over-conventional-SSD write path, where
	// the whole page (original content + appended delta records) travels
	// over the block-device interface.
	originalMeta []byte
}

// inlineChanges is the number of changes a Tracker holds without heap
// storage: 2×4 + 1.
const inlineChanges = 9

// NewTracker creates a tracker for a page that already carries existing
// delta records on Flash (see Init). The tracker has no use for metaLen, the
// Δmetadata length of the page layout: records get their Δmetadata, and the
// codec checks its length, when they are built.
func NewTracker(scheme Scheme, metaLen, bodyLen, existing int) *Tracker {
	t := new(Tracker)
	t.Init(scheme, bodyLen, existing)
	return t
}

// Init makes t the tracker of a new residency, as NewTracker would, keeping
// the storage it already owns. bodyLen is the length of the page prefix that
// may be patched byte-wise (everything before the delta-record area);
// changes outside it are treated as metadata or force an out-of-place write.
func (t *Tracker) Init(scheme Scheme, bodyLen, existing int) {
	t.scheme, t.bodyLen = scheme, bodyLen
	t.originalMeta = t.originalMeta[:0]
	if t.patches == nil {
		t.patches, t.olds, t.flash = t.inlinePatches[:0], t.inlineOlds[:0], t.inlineFlash[:0]
	}
	t.flash = t.flash[:0]
	t.Reset(existing)
}

// Scheme returns the N×M scheme the tracker enforces.
func (t *Tracker) Scheme() Scheme { return t.scheme }

// Existing returns the number of delta records already on the Flash page.
func (t *Tracker) Existing() int { return t.existing }

// OutOfPlace reports whether the page must be written out-of-place on the
// next eviction.
func (t *Tracker) OutOfPlace() bool { return t.outOfPlace }

// SetOriginalMeta records a copy of the header/footer image currently
// stored on the Flash page (before any Δmetadata was applied during
// reconstruction).
func (t *Tracker) SetOriginalMeta(meta []byte) {
	t.originalMeta = append(t.originalMeta[:0], meta...)
}

// OriginalMeta returns the header/footer image stored on Flash; it is empty
// if none was recorded.
func (t *Tracker) OriginalMeta() []byte { return t.originalMeta }

// MarkOutOfPlace forces the next eviction to use a traditional
// out-of-place write and stops change tracking.
func (t *Tracker) MarkOutOfPlace() {
	t.outOfPlace = true
	t.patches, t.olds = t.patches[:0], t.olds[:0]
}

// MetaChanged reports whether page metadata (header/footer) changed.
func (t *Tracker) MetaChanged() bool { return t.metaChanged }

// RecordMetaChange notes that page metadata (header or footer bytes)
// changed. Metadata changes do not count against M: they travel in the
// Δmetadata portion of the delta record.
func (t *Tracker) RecordMetaChange() { t.metaChanged = true }

// RecordChange notes that the byte at offset changed from old to new.
// Offsets must address the page body; the tracker transparently handles a
// byte changing several times and a byte reverting to its original value.
// Once the accumulated changes can no longer fit the remaining delta-record
// slots, tracking stops and the page is marked for an out-of-place write.
func (t *Tracker) RecordChange(offset int, old, new byte) {
	if t.outOfPlace || old == new {
		return
	}
	if offset < 0 || offset >= t.bodyLen || offset > int(^uint16(0)) {
		t.MarkOutOfPlace()
		return
	}
	off := uint16(offset)
	// Binary search for off; a write's bytes arrive in ascending order, so
	// the usual answer is the end.
	i, hi := len(t.patches), len(t.patches)
	if hi > 0 && t.patches[hi-1].Offset >= off {
		for i = 0; i < hi; {
			if mid := int(uint(i+hi) >> 1); t.patches[mid].Offset < off {
				i = mid + 1
			} else {
				hi = mid
			}
		}
	}
	switch {
	case i == len(t.patches) || t.patches[i].Offset != off:
		t.patches = slices.Insert(t.patches, i, Patch{Offset: off, Value: new})
		t.olds = slices.Insert(t.olds, i, old)
	case t.olds[i] == new:
		// The byte reverted to its on-Flash value; drop the change.
		t.patches = slices.Delete(t.patches, i, i+1)
		t.olds = slices.Delete(t.olds, i, i+1)
	default:
		t.patches[i].Value = new
	}
	if !t.fits() {
		t.MarkOutOfPlace()
	}
}

// RecordWrite is a convenience wrapper recording a multi-byte in-place
// update starting at offset, with old and new holding the previous and new
// images of the updated range.
func (t *Tracker) RecordWrite(offset int, old, new []byte) {
	for i := range new {
		if t.outOfPlace {
			return
		}
		var o byte
		if i < len(old) {
			o = old[i]
		}
		t.RecordChange(offset+i, o, new[i])
	}
}

// fits reports whether the tracked changes still fit the remaining record
// slots of the scheme.
func (t *Tracker) fits() bool {
	return t.recordsNeeded() <= t.scheme.N-t.existing
}

// recordsNeeded returns how many delta records the tracked changes require.
func (t *Tracker) recordsNeeded() int {
	if !t.scheme.Enabled() {
		return t.scheme.N + 1 // never fits
	}
	if len(t.patches) == 0 {
		if t.metaChanged {
			return 1
		}
		return 0
	}
	return (len(t.patches) + t.scheme.M - 1) / t.scheme.M
}

// Dirty reports whether any change (body or metadata) was tracked. Pages
// whose tracking stopped because the out-of-place flag was set rely on the
// buffer manager's dirty bit instead.
func (t *Tracker) Dirty() bool {
	return t.metaChanged || len(t.patches) > 0
}

// NetChangedBytes returns the number of distinct body bytes whose value
// differs from the on-Flash image, the quantity behind Figure 1 of the
// paper. Tracking stops with the out-of-place flag, so the count is exact
// only while OutOfPlace is false; after that it reads 0, and the storage
// manager counts the eviction against the Flash copy instead.
func (t *Tracker) NetChangedBytes() int { return len(t.patches) }

// Eligible reports whether the page can be evicted using an in-place
// append: IPA must be enabled, the out-of-place flag must not be set and
// the changes must fit the remaining record slots.
func (t *Tracker) Eligible() bool {
	return t.scheme.Enabled() && !t.outOfPlace && t.fits()
}

// Records returns the number of delta records an in-place append of the
// tracked changes takes: zero if the page is not eligible for one or
// nothing changed, one for a metadata-only change.
func (t *Tracker) Records() int {
	if !t.Eligible() || !t.Dirty() {
		return 0
	}
	return t.recordsNeeded()
}

// Record returns the i-th of those records — the i-th run of at most M
// changes in ascending offset order — carrying the Δmetadata meta; every
// record carries it, so the newest always holds a complete copy. The
// record's patches alias the tracker and are valid until its next change.
func (t *Tracker) Record(i int, meta []byte) DeltaRecord {
	lo := min(i*t.scheme.M, len(t.patches))
	hi := min(lo+t.scheme.M, len(t.patches))
	return DeltaRecord{Patches: t.patches[lo:hi:hi], Meta: meta}
}

// BuildRecords returns copies of all Records() delta records, or nil if
// there are none.
func (t *Tracker) BuildRecords(meta []byte) []DeltaRecord {
	var out []DeltaRecord
	for i, n := 0, t.Records(); i < n; i++ {
		rec := t.Record(i, meta)
		rec.Patches = slices.Clone(rec.Patches)
		out = append(out, rec)
	}
	return out
}

// RestoreOriginal writes into dst the buffered page with the tracked body
// changes and the on-Flash records' body bytes undone: the body currently
// stored on Flash. The storage manager uses it on the
// IPA-over-conventional-SSD path, where the whole page (original body +
// appended delta records) is written over the block-device interface. dst
// must be as long as buffered.
func (t *Tracker) RestoreOriginal(dst, buffered []byte) {
	copy(dst, buffered)
	for i, p := range t.patches {
		if int(p.Offset) < len(dst) {
			dst[p.Offset] = t.olds[i]
		}
	}
	for _, p := range t.flash {
		if int(p.Offset) < len(dst) {
			dst[p.Offset] = p.Value
		}
	}
}

// keepFlash notes that the Flash body holds old at offset, unless a record
// already on Flash changed that byte first.
func (t *Tracker) keepFlash(offset int, old byte) {
	for _, p := range t.flash {
		if int(p.Offset) == offset {
			return
		}
	}
	t.flash = append(t.flash, Patch{Offset: uint16(offset), Value: old})
}

// Appended notes that the tracked changes reached Flash as records more
// delta records beside an unchanged body, and restarts tracking for the
// rest of the residency.
func (t *Tracker) Appended(records int) {
	for i, p := range t.patches {
		t.keepFlash(int(p.Offset), t.olds[i])
	}
	t.Reset(t.existing + records)
}

// Reset prepares the tracker for the next residency of the page in the
// buffer pool: the number of on-Flash records becomes existing and all
// tracked state is discarded — with existing 0 (a whole-page write) the
// Flash body's record bytes too.
func (t *Tracker) Reset(existing int) {
	t.existing = existing
	t.outOfPlace = !t.scheme.Enabled() || existing >= t.scheme.N
	t.metaChanged = false
	t.patches, t.olds = t.patches[:0], t.olds[:0]
	if existing == 0 {
		t.flash = t.flash[:0]
	}
}
