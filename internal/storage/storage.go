// Package storage implements the storage manager: the layer between the
// buffer pool and the Flash translation layer that realises the three
// write paths demonstrated in the paper.
//
//   - Traditional: every dirty page eviction writes the whole page
//     out-of-place (demo scenario 1, the baseline).
//   - IPA for conventional SSDs: the page image (original body plus the
//     appended delta records) is written over the block-device interface;
//     the FTL detects that the image is programmable onto the existing
//     physical page and performs an in-place append (demo scenario 2).
//   - IPA for native Flash: only the delta records travel to the device
//     via the write_delta command (demo scenario 3).
//
// The storage manager also performs page reconstruction on fetch (applying
// delta records and Δmetadata) and collects the per-eviction statistics
// behind Figure 1 (net modified bytes, DBMS write amplification) and the
// eviction trace replayed against the In-Page Logging baseline.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"ipa/internal/core"
	"ipa/internal/ftl"
	"ipa/internal/page"
	"ipa/internal/region"
	"ipa/internal/stat"
)

// WriteMode selects the eviction write path.
type WriteMode int

const (
	// WriteTraditional always writes whole pages out-of-place.
	WriteTraditional WriteMode = iota
	// WriteIPASSD writes whole pages (body + delta-record area) over the
	// block-device interface; in-place appends happen inside the FTL.
	WriteIPASSD
	// WriteIPANative transfers only delta records using write_delta.
	WriteIPANative
)

// String names the write mode as used in the demo scenarios.
func (m WriteMode) String() string {
	switch m {
	case WriteTraditional:
		return "traditional"
	case WriteIPASSD:
		return "ipa-ssd"
	case WriteIPANative:
		return "ipa-native"
	default:
		return fmt.Sprintf("WriteMode(%d)", int(m))
	}
}

// encodeStackSize is the largest run of encoded delta records storeAppend
// builds on its stack: both records of a 2×4 page, all four of the 4×20
// index scheme.
const encodeStackSize = 512

// imageStackSize is the largest page image the eviction path builds on its
// stack: the Flash copy changedOnFlash compares with. A sync.Pool would
// allocate again after every collection.
const imageStackSize = 8192

// SmallEvictionThreshold is the "less than 100 bytes of net data" bound the
// paper uses when characterising OLTP eviction behaviour (Figure 1).
const SmallEvictionThreshold = 100

// ErrCapacity is returned when the database outgrows the Flash device.
var ErrCapacity = errors.New("storage: out of logical page capacity")

// Config configures the storage manager.
type Config struct {
	// Mode selects the eviction write path.
	Mode WriteMode
	// Regions maps database objects to their IPA configuration.
	Regions *region.Manager
	// TraceEvictions records a fetch/eviction trace that can be replayed
	// against the In-Page Logging baseline.
	TraceEvictions bool
}

// Stats aggregates storage-manager counters. The manager's own value is
// its live counter set, bumped atomically, so evictions and fetches on
// different chips never share a lock.
type Stats struct {
	PageLoads      uint64
	DirtyEvictions uint64
	CleanEvictions uint64 // dirty flag set but nothing actually changed

	IPAAppendEvictions  uint64 // evictions persisted as in-place appends
	OutOfPlaceEvictions uint64 // evictions persisted as whole-page writes
	AppendFallbacks     uint64 // IPA attempted but refused by the FTL/device

	DeltaRecordsWritten uint64
	DeltaBytesWritten   uint64

	// Figure 1 accounting.
	NetChangedBytes uint64 // sum of net modified bytes over dirty evictions
	SmallEvictions  uint64 // dirty evictions with < SmallEvictionThreshold net modified bytes
	EvictedBytes    uint64 // page bytes a traditional DBMS would have written

	// EvictionSizeHistogram buckets dirty evictions by their net modified
	// bytes; HistogramBucketBounds gives the upper bound of each bucket.
	// It is the distribution behind Figure 1.
	EvictionSizeHistogram [len(histogramBounds) + 1]uint64

	// Index-page slice of the counters above (pages owned by KindIndex
	// regions: primary-key and secondary entry pages). Index maintenance is
	// small-update dominated, so under IPA most index evictions become
	// delta appends: IndexInPlaceAppends / IndexPageWrites shows how much of
	// it IPA absorbs, and IndexDeltaRecords / IndexOutOfPlaceWrites is the
	// number of delta appends amortised per full index-page rewrite (merge).
	IndexPageReads        uint64 // index entry pages loaded from Flash
	IndexPageWrites       uint64 // dirty index-page evictions
	IndexInPlaceAppends   uint64 // index evictions persisted as delta appends
	IndexOutOfPlaceWrites uint64 // index evictions written as whole pages
	IndexDeltaRecords     uint64 // delta records written for index pages
	IndexDeltaBytes       uint64 // delta bytes written for index pages
}

// histogramBounds are the upper bounds (inclusive) of the eviction-size
// histogram buckets in bytes; the final implicit bucket is "larger".
var histogramBounds = [...]int{10, 25, 50, 100, 250, 1000, 4000}

// HistogramBucketBounds returns the upper bounds of the eviction-size
// histogram buckets; the last bucket of EvictionSizeHistogram counts
// evictions larger than the final bound.
func HistogramBucketBounds() []int {
	out := make([]int, len(histogramBounds))
	copy(out, histogramBounds[:])
	return out
}

// histogramBucket returns the bucket index for a net modified byte count.
func histogramBucket(n int) int {
	for i, b := range histogramBounds {
		if n <= b {
			return i
		}
	}
	return len(histogramBounds)
}

// TraceEventType distinguishes trace entries.
type TraceEventType int

const (
	// TraceFetch records a page read into the buffer pool.
	TraceFetch TraceEventType = iota
	// TraceEvict records a dirty page eviction.
	TraceEvict
)

// TraceEvent is one entry of the fetch/eviction trace.
type TraceEvent struct {
	Type         TraceEventType
	PID          uint64
	ChangedBytes int  // body bytes the eviction changes against the Flash copy (0 for fetches)
	MetaChanged  bool // page metadata changed
}

// Manager is the storage manager. It holds no lock on the eviction and
// fetch paths: page-identifier allocation and all counters are atomic, so
// concurrent evictions and fetches targeting different chips never
// rendezvous here. The only mutex guards the optional eviction trace.
type Manager struct {
	ftl      *ftl.FTL
	cfg      Config
	pageSize int
	nextPID  atomic.Uint64
	stats    Stats

	// walBarrier, if set, is invoked before any dirty page reaches Flash —
	// the write-ahead rule. The engine wires it to a WAL flush so a page
	// image on Flash never contains effects whose log records could still
	// be lost by a crash.
	walBarrier func() error

	traceMu sync.Mutex
	trace   []TraceEvent
}

// New creates a storage manager on top of an FTL.
func New(f *ftl.FTL, cfg Config) (*Manager, error) {
	if cfg.Regions == nil {
		cfg.Regions = region.NewManager(region.Region{Name: "default"})
	}
	m := &Manager{
		ftl:      f,
		cfg:      cfg,
		pageSize: f.PageSize(),
	}
	return m, nil
}

// PageSize returns the database page size (equal to the Flash page size).
func (m *Manager) PageSize() int { return m.pageSize }

// SetWALBarrier installs the write-ahead barrier invoked before every dirty
// page write. It must be set before the manager is shared between
// goroutines.
func (m *Manager) SetWALBarrier(fn func() error) { m.walBarrier = fn }

// Mode returns the configured write mode.
func (m *Manager) Mode() WriteMode { return m.cfg.Mode }

// FTL returns the underlying Flash translation layer.
func (m *Manager) FTL() *ftl.FTL { return m.ftl }

// Regions returns the region manager.
func (m *Manager) Regions() *region.Manager { return m.cfg.Regions }

// Stats returns a snapshot of the storage counters.
func (m *Manager) Stats() Stats { return stat.Load(&m.stats) }

// TraceLen returns the number of events recorded in the trace so far.
func (m *Manager) TraceLen() int {
	m.traceMu.Lock()
	defer m.traceMu.Unlock()
	return len(m.trace)
}

// Trace returns a copy of the recorded fetch/eviction trace.
func (m *Manager) Trace() []TraceEvent {
	m.traceMu.Lock()
	defer m.traceMu.Unlock()
	out := make([]TraceEvent, len(m.trace))
	copy(out, m.trace)
	return out
}

// effectiveScheme returns the N×M scheme in force for an object under the
// configured write mode.
func (m *Manager) effectiveScheme(objectID uint32) core.Scheme {
	if m.cfg.Mode == WriteTraditional {
		return core.Disabled
	}
	return m.cfg.Regions.For(objectID).Scheme
}

// isIndexObject reports whether objectID belongs to an index region, i.e.
// whether its pages are primary-key entry pages.
func (m *Manager) isIndexObject(objectID uint32) bool {
	return m.cfg.Regions.For(objectID).Kind == region.KindIndex
}

// isLogicalObject reports whether objectID's pages are recovered logically
// (decoded and re-interpreted) rather than byte-replayed from WAL images:
// index entry pages and the checkpoint catalog page. Such pages may only
// take single-record in-place appends, since a torn multi-record append
// could persist a byte-subset of one logical operation.
func (m *Manager) isLogicalObject(objectID uint32) bool {
	k := m.cfg.Regions.For(objectID).Kind
	return k == region.KindIndex || k == region.KindCatalog
}

// AllocatePage reserves a new page identifier for the given object. It is
// lock-free: concurrent allocations race on a compare-and-swap instead of
// a mutex. Sequential identifiers stripe across the FTL's chip partitions,
// so a multi-chip device spreads a table's pages over all chips.
func (m *Manager) AllocatePage(objectID uint32) (uint64, error) {
	for {
		cur := m.nextPID.Load()
		if int(cur) >= m.ftl.Capacity() {
			return 0, fmt.Errorf("%w: %d pages", ErrCapacity, m.ftl.Capacity())
		}
		if m.nextPID.CompareAndSwap(cur, cur+1) {
			return cur, nil
		}
	}
}

// EnsureAllocated advances the page-identifier allocator so it never hands
// out an identifier below floor. Recovery calls it after rebuilding the
// mapping from a surviving Flash image, so new pages cannot collide with
// pages that already exist on Flash or in the log.
func (m *Manager) EnsureAllocated(floor uint64) {
	for {
		cur := m.nextPID.Load()
		if cur >= floor {
			return
		}
		if m.nextPID.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// ScrubPage repairs a logical page whose physical copy carries a torn
// in-place append: the surviving image is salvaged (complete delta records
// applied, the torn tail discarded via the record commit markers) and
// rewritten out of place with a clean delta area, so normal ECC-checked
// reads work again.
func (m *Manager) ScrubPage(pid uint64) error {
	buf := make([]byte, m.pageSize)
	if _, err := m.ftl.SalvageRead(int(pid), buf); err != nil {
		return fmt.Errorf("storage: scrub page %d: %w", pid, err)
	}
	pg, err := page.Wrap(buf)
	if err != nil {
		return fmt.Errorf("storage: scrub page %d: %w", pid, err)
	}
	scheme := m.effectiveScheme(pg.ObjectID())
	if _, err := reconstruct(pg, scheme, nil); err != nil {
		return fmt.Errorf("storage: scrub page %d: %w", pid, err)
	}
	if scheme.Enabled() {
		pg.ResetDeltaArea()
	}
	if err := m.ftl.WritePageOut(int(pid), buf); err != nil {
		return fmt.Errorf("storage: scrub page %d: %w", pid, err)
	}
	return nil
}

// reconstruct brings a page image read from Flash up to date where it lies:
// the complete delta records of its area are applied to the body and the
// newest Δmetadata is installed. It returns the number of records applied,
// which is the number of record slots the Flash page has used. A non-nil t
// keeps the Flash body's value of every byte the records change.
func reconstruct(pg *page.Page, scheme core.Scheme, t *core.Tracker) (int, error) {
	if !scheme.Enabled() || pg.DeltaAreaSize() < scheme.AreaSize(page.MetaSize) {
		return 0, nil
	}
	records, meta := core.ApplyArea(pg.Buf()[:pg.BodyEnd()], pg.DeltaArea(), scheme, page.MetaSize, t)
	if meta == nil {
		return 0, nil
	}
	return records, pg.ApplyMeta(meta)
}

// InitPage formats buf as a fresh page for the given object and makes t its
// change tracker. The first eviction of a new page is always a whole-page
// write (there is nothing on Flash to append to).
func (m *Manager) InitPage(buf []byte, pid uint64, objectID uint32, t *core.Tracker) error {
	scheme := m.effectiveScheme(objectID)
	deltaSize := 0
	if scheme.Enabled() {
		deltaSize = scheme.AreaSize(page.MetaSize)
	}
	pg, err := page.Init(buf, pid, objectID, deltaSize)
	if err != nil {
		return err
	}
	// Stamp the page kind before the tracker snapshots the metadata, so the
	// flag is part of the original on-Flash header image.
	if m.isIndexObject(objectID) {
		pg.SetFlags(pg.Flags() | page.FlagIndex)
	}
	var meta [page.MetaSize]byte
	t.Init(scheme, pg.BodyEnd(), 0)
	t.SetOriginalMeta(pg.MetaInto(meta[:]))
	t.MarkOutOfPlace()
	return nil
}

// LoadPage is LoadPageInto with a tracker of its own, for callers outside
// the buffer pool.
func (m *Manager) LoadPage(pid uint64, buf []byte) (*core.Tracker, error) {
	t := new(core.Tracker)
	return t, m.LoadPageInto(pid, buf, t)
}

// LoadPageInto implements buffer.PageIO: it reads the page image from Flash,
// applies any delta records (page reconstruction) and makes t the tracker of
// the new buffer residency.
func (m *Manager) LoadPageInto(pid uint64, buf []byte, t *core.Tracker) error {
	if err := m.ftl.ReadPage(int(pid), buf); err != nil {
		return err
	}
	pg, err := page.Wrap(buf)
	if err != nil {
		return fmt.Errorf("storage: page %d: %w", pid, err)
	}
	scheme := m.effectiveScheme(pg.ObjectID())
	// Remember the header/footer exactly as stored on Flash: the
	// conventional-SSD write path must reproduce that image when it
	// appends further delta records.
	var rawMeta [page.MetaSize]byte
	pg.MetaInto(rawMeta[:])
	t.Init(scheme, pg.BodyEnd(), 0)
	existing, err := reconstruct(pg, scheme, t)
	if err != nil {
		return fmt.Errorf("storage: page %d: %w", pid, err)
	}
	t.Reset(existing)
	t.SetOriginalMeta(rawMeta[:])

	atomic.AddUint64(&m.stats.PageLoads, 1)
	if m.isIndexObject(pg.ObjectID()) {
		atomic.AddUint64(&m.stats.IndexPageReads, 1)
	}
	if m.cfg.TraceEvictions {
		m.traceMu.Lock()
		m.trace = append(m.trace, TraceEvent{Type: TraceFetch, PID: pid})
		m.traceMu.Unlock()
	}
	return nil
}

// StorePage implements buffer.PageIO: it persists a dirty page using the
// configured write path and resets t, the tracker its residency was loaded
// or initialised into, for the page's next one.
func (m *Manager) StorePage(pid uint64, buf []byte, t *core.Tracker) error {
	pg, err := page.Wrap(buf)
	if err != nil {
		return fmt.Errorf("storage: page %d: %w", pid, err)
	}
	scheme := t.Scheme()

	// A page whose tracked changes all reverted needs no write at all.
	if !t.OutOfPlace() && !t.Dirty() {
		atomic.AddUint64(&m.stats.CleanEvictions, 1)
		return nil
	}

	// Write-ahead rule: the log records describing this page's changes must
	// be durable before the page image may reach Flash, otherwise a crash
	// could leave flushed effects whose log records are gone — invisible to
	// both redo and undo.
	if m.walBarrier != nil {
		if err := m.walBarrier(); err != nil {
			return fmt.Errorf("storage: WAL barrier for page %d: %w", pid, err)
		}
	}

	net := t.NetChangedBytes()
	if t.OutOfPlace() {
		if net, err = m.changedOnFlash(pid, pg, scheme); err != nil {
			return err
		}
	}
	isIndex := m.isIndexObject(pg.ObjectID())
	atomic.AddUint64(&m.stats.DirtyEvictions, 1)
	if isIndex {
		atomic.AddUint64(&m.stats.IndexPageWrites, 1)
	}
	atomic.AddUint64(&m.stats.EvictedBytes, uint64(len(buf)))
	atomic.AddUint64(&m.stats.NetChangedBytes, uint64(net))
	if net > 0 && net < SmallEvictionThreshold {
		atomic.AddUint64(&m.stats.SmallEvictions, 1)
	}
	atomic.AddUint64(&m.stats.EvictionSizeHistogram[histogramBucket(net)], 1)
	if m.cfg.TraceEvictions {
		m.traceMu.Lock()
		m.trace = append(m.trace, TraceEvent{Type: TraceEvict, PID: pid, ChangedBytes: net, MetaChanged: t.MetaChanged()})
		m.traceMu.Unlock()
	}

	// IsAppendTarget is false for unmapped pages, so no separate Mapped
	// check (and partition-lock round trip) is needed.
	eligible := t.Eligible() && t.Dirty() &&
		m.cfg.Mode != WriteTraditional && m.ftl.IsAppendTarget(int(pid))
	if eligible {
		stored, err := m.storeAppend(pid, buf, pg, t, scheme, isIndex)
		if err != nil || stored {
			return err
		}
		atomic.AddUint64(&m.stats.AppendFallbacks, 1)
	}
	return m.storeOutOfPlace(pid, buf, pg, t, scheme, isIndex)
}

// changedOnFlash counts the body bytes of pg that differ from its peeked
// Flash copy with the copy's delta records applied, or from the zeroed body
// page.Init formats if the page was never written: Figure 1's net modified
// bytes for an eviction the tracker stopped following.
func (m *Manager) changedOnFlash(pid uint64, pg *page.Page, scheme core.Scheme) (int, error) {
	var stack [imageStackSize]byte
	image := slices.Grow(stack[:0], m.pageSize)[:m.pageSize]
	if err := m.ftl.Peek(int(pid), image); errors.Is(err, ftl.ErrUnmapped) {
		clear(image)
	} else if err != nil {
		return 0, fmt.Errorf("storage: page %d: %w", pid, err)
	} else if flash, err := page.Wrap(image); err == nil {
		// A copy that does not wrap (interference flipped its header) is
		// compared as it lies: the count is a measurement, and a flipped
		// bit is a changed byte.
		if _, err := reconstruct(flash, scheme, nil); err != nil {
			return 0, fmt.Errorf("storage: page %d: %w", pid, err)
		}
	}
	return changedBytes(pg.Buf()[page.HeaderSize:pg.BodyEnd()], image[page.HeaderSize:pg.BodyEnd()]), nil
}

// changedBytes counts the positions at which a and b differ, halving an
// unequal range down to 128 bytes (an eviction changes a few spots, and
// equal spans compare much faster) and counting that a word at a time: the
// first write of a fresh page differs everywhere.
func changedBytes(a, b []byte) int {
	if bytes.Equal(a, b) {
		return 0
	}
	if len(a) > 128 {
		h := len(a) / 2
		return changedBytes(a[:h], b[:h]) + changedBytes(a[h:], b[h:])
	}
	b = b[:len(a)]
	n, i := 0, 0
	for ; i+8 <= len(a); i += 8 {
		// Fold each byte of the XOR onto its low bit: one bit per differing byte.
		x := binary.LittleEndian.Uint64(a[i:i+8]) ^ binary.LittleEndian.Uint64(b[i:i+8])
		x |= x >> 4
		x |= x >> 2
		n += bits.OnesCount64((x | x>>1) & 0x0101010101010101)
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// storeAppend persists the tracked changes as appended delta records. It
// reports false, having written nothing, when the page must be written out
// of place instead.
func (m *Manager) storeAppend(pid uint64, buf []byte, pg *page.Page, t *core.Tracker, scheme core.Scheme, isIndex bool) (bool, error) {
	records := t.Records() // at least one: StorePage sends only dirty, eligible pages
	if m.isLogicalObject(pg.ObjectID()) && records > 1 {
		// Index pages may append only when the residency's changes fit ONE
		// delta record. A record is atomic (its checksum and commit marker
		// are programmed last), but a torn append of several concatenated
		// records can persist a valid prefix — a byte-subset of one logical
		// index operation. Heap pages survive that because recovery replays
		// their bytes from the WAL images; entry pages are recovered
		// LOGICALLY (entries are decoded, keyed records replayed), so a
		// half-rewritten entry would surface as a garbage key no log record
		// ever names. The exhaustive power-cut sweep caught exactly that:
		// a secondary entry move split across two records, torn after the
		// first, decoding as an old/new key mix. Falling back to the
		// out-of-place write keeps the page atomic (mapping-tag ECC).
		return false, nil
	}
	firstSlot := t.Existing()
	recordSize := scheme.RecordSize(page.MetaSize)
	// The records are encoded straight from the tracker's sorted changes,
	// every one carrying the page's current Δmetadata, on the stack unless
	// the scheme's records are larger than the paper's.
	var metaBuf [page.MetaSize]byte
	var stack [encodeStackSize]byte
	meta := pg.MetaInto(metaBuf[:])
	encoded := slices.Grow(stack[:0], recordSize*records)[:recordSize*records]
	for i := 0; i < records; i++ {
		if err := core.EncodeRecord(encoded[i*recordSize:(i+1)*recordSize], t.Record(i, meta), scheme, page.MetaSize); err != nil {
			return false, fmt.Errorf("storage: page %d: %w", pid, err)
		}
	}
	areaOffset := pg.DeltaAreaStart() + firstSlot*recordSize

	switch m.cfg.Mode {
	case WriteIPANative:
		err := m.ftl.WriteDelta(int(pid), areaOffset, encoded)
		if errors.Is(err, ftl.ErrNotAppendable) {
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("storage: write_delta page %d: %w", pid, err)
		}
	case WriteIPASSD:
		// Build the block-device image: the body and metadata exactly as
		// they are stored on Flash plus the delta-record area extended
		// with the new records. Only previously erased bytes change, so
		// the FTL can program the image onto the existing physical page.
		inPlace, err := m.ftl.WriteImage(int(pid), func(image []byte) {
			t.RestoreOriginal(image, buf)
			if meta := t.OriginalMeta(); len(meta) == page.MetaSize {
				copy(image[:page.HeaderSize], meta[:page.HeaderSize])
				copy(image[len(image)-page.FooterSize:], meta[page.HeaderSize:])
			}
			copy(image[areaOffset:], encoded)
		})
		if err != nil {
			return false, fmt.Errorf("storage: page %d: %w", pid, err)
		}
		if !inPlace {
			// The FTL wrote the image out-of-place (e.g. append budget
			// exhausted). The image is still correct; account it as a
			// fallback so the statistics reflect reality.
			copy(buf[areaOffset:], encoded)
			t.Appended(records)
			atomic.AddUint64(&m.stats.AppendFallbacks, 1)
			m.countOutOfPlace(isIndex)
			return true, nil
		}
	default:
		return false, nil
	}

	// The buffered image mirrors the Flash page: it gains the records too.
	copy(buf[areaOffset:], encoded)
	atomic.AddUint64(&m.stats.IPAAppendEvictions, 1)
	atomic.AddUint64(&m.stats.DeltaRecordsWritten, uint64(records))
	atomic.AddUint64(&m.stats.DeltaBytesWritten, uint64(len(encoded)))
	if isIndex {
		atomic.AddUint64(&m.stats.IndexInPlaceAppends, 1)
		atomic.AddUint64(&m.stats.IndexDeltaRecords, uint64(records))
		atomic.AddUint64(&m.stats.IndexDeltaBytes, uint64(len(encoded)))
	}
	t.Appended(records)
	return true, nil
}

// storeOutOfPlace writes the whole up-to-date page image out-of-place.
// It must never be served by an in-place merge: the image carries body
// changes, and a torn in-place body program is undetectable (only delta
// records are checksum-framed), so the write goes through WritePageOut.
func (m *Manager) storeOutOfPlace(pid uint64, buf []byte, pg *page.Page, t *core.Tracker, scheme core.Scheme, isIndex bool) error {
	if scheme.Enabled() {
		// The freshly written copy starts with an empty (erased)
		// delta-record area so it can take future in-place appends.
		pg.ResetDeltaArea()
	}
	if err := m.ftl.WritePageOut(int(pid), buf); err != nil {
		return fmt.Errorf("storage: page %d: %w", pid, err)
	}
	m.countOutOfPlace(isIndex)
	t.Reset(0)
	// The freshly written page now carries the current metadata.
	var meta [page.MetaSize]byte
	t.SetOriginalMeta(pg.MetaInto(meta[:]))
	return nil
}

// countOutOfPlace counts an eviction persisted as a whole-page write.
func (m *Manager) countOutOfPlace(isIndex bool) {
	atomic.AddUint64(&m.stats.OutOfPlaceEvictions, 1)
	if isIndex {
		atomic.AddUint64(&m.stats.IndexOutOfPlaceWrites, 1)
	}
}
