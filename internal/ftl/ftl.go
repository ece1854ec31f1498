// Package ftl implements the Flash management layer between the database
// storage manager and the simulated Flash device.
//
// It provides the two architectures evaluated in the paper:
//
//   - a conventional SSD exposing a block-device style page interface with
//     out-of-place updates, page-mapping address translation, greedy
//     garbage collection and wear-aware block allocation; optionally with
//     in-place write merging so that a host write whose only changes are
//     appended delta-record bytes is programmed onto the existing physical
//     page without invalidating it (IPA for conventional SSDs, demo
//     scenario 2), and
//
//   - the native-Flash path used by the NoFTL architecture, where the host
//     issues the write_delta command and only the delta bytes travel to the
//     device (IPA for native Flash, demo scenario 3).
//
// The FTL is partitioned per NAND chip so device-internal parallelism is
// actually exploitable: logical pages are striped across chips (chip =
// lba mod chips), and every chip partition owns its own lock, active
// block, free-block list and garbage collector. Operations on different
// chips — including a GC run on one chip and allocations on another —
// proceed fully in parallel; the counters are bumped atomically.
//
// All counters that the paper reports (host reads and writes, GC page
// migrations, GC erases, in-place vs out-of-place writes) are collected
// here.
package ftl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ipa/internal/flashdev"
	"ipa/internal/nand"
	"ipa/internal/stat"
)

// Errors returned by the FTL.
var (
	// ErrUnmapped is returned when reading a logical page that has never
	// been written.
	ErrUnmapped = errors.New("ftl: logical page not mapped")
	// ErrNotAppendable is returned by WriteDelta (and by the in-place
	// merge path) when the mapped physical page cannot accept an in-place
	// append; the caller must fall back to a full out-of-place write.
	ErrNotAppendable = errors.New("ftl: page cannot take an in-place append")
	// ErrDeviceFull is returned when no free block can be reclaimed.
	ErrDeviceFull = errors.New("ftl: device full (no reclaimable blocks)")
	// ErrBadLBA is returned for logical addresses outside the exported
	// capacity.
	ErrBadLBA = errors.New("ftl: logical page address out of range")
)

// Config tunes the FTL.
type Config struct {
	// FlashMode selects how MLC Flash is operated (pSLC, odd-MLC, ...).
	// It controls which physical pages are usable and which accept
	// in-place appends.
	FlashMode nand.Mode
	// OverprovisionPct is the fraction of usable pages withheld from the
	// exported capacity to give the garbage collector headroom (default
	// 0.08).
	OverprovisionPct float64
	// InPlaceMerge enables detection of host page writes that can be
	// programmed onto the already mapped physical page (IPA over the
	// block-device interface).
	InPlaceMerge bool
	// EccCoverBytes is the number of leading page bytes protected by the
	// initial ECC; the remainder is the delta-record area. Zero protects
	// the whole page (no IPA). It is set during low-level formatting.
	EccCoverBytes int
	// EccTailBytes is the number of trailing page bytes (the page footer
	// behind the delta-record area) additionally protected by the initial
	// ECC, so torn whole-page programs are fully detectable.
	EccTailBytes int
}

// The garbage collector's watermarks: a chip whose free blocks drop to
// gcLowWater is collected until it has gcHighWater free blocks again.
const (
	gcLowWater  = 2
	gcHighWater = 4
)

// Stats are the counters the experiments report. The FTL's own value is
// its live counter set, bumped atomically; its GCStats stay zero there,
// because every partition counts its own garbage collection.
type Stats struct {
	HostReads        uint64 // host page reads
	HostWrites       uint64 // host full-page writes
	HostWriteDeltas  uint64 // host write_delta commands
	HostBytesRead    uint64
	HostBytesWritten uint64 // bytes transferred host -> FTL (full pages and deltas)

	InPlaceAppends   uint64 // host writes served without page invalidation
	OutOfPlaceWrites uint64 // host writes served by writing a new physical page
	Invalidations    uint64 // physical pages invalidated by host writes

	GCStats // summed over the chip partitions
}

// GCStats counts the garbage collector's work.
type GCStats struct {
	GCMigrations uint64 // valid pages copied by the garbage collector
	GCErases     uint64 // blocks erased by the garbage collector
	GCRuns       uint64
}

// ChipStats reports the activity of one chip partition.
type ChipStats struct {
	Chip int
	GCStats
	FreeBlocks    int
	ExportedPages int
}

type blockState int

const (
	blockFree blockState = iota
	blockActive
	blockUsed
)

type blockInfo struct {
	state      blockState
	validCount int
	nextPage   int // next unwritten usable page index (for the active block)
	eraseCount int // cached device erase count (wear levelling without device calls)
}

// partition is the per-chip slice of the FTL: its own lock, active block,
// free-block list and garbage collector. A partition owns the blocks
// [chip*blocksPerChip, (chip+1)*blocksPerChip) of the device, every
// physical page within them, and every logical page with lba mod chips ==
// chip. All of that state is only touched under the partition lock, so
// chips never contend with each other.
type partition struct {
	mu   sync.Mutex
	f    *FTL
	chip int

	firstBlock int // global index of the partition's first block
	free       []int
	active     int // global block index, -1 if none
	// image is the page WriteImage builds under the lock: heap memory the
	// device computes ECC over at full speed, so no caller needs a
	// page-sized stack array that the ECC call would move to the heap.
	image []byte

	gc GCStats // bumped atomically
}

// FTL is a page-mapping Flash translation layer, partitioned per chip.
type FTL struct {
	dev *flashdev.Device
	cfg Config
	geo flashdev.Geometry

	usablePerBlock  int
	exportedPages   int
	chips           int
	blocksPerChip   int
	exportedPerChip int

	// The translation state is stored in flat arrays but ownership is
	// partitioned: l2p[lba] belongs to partition lba%chips; p2l, appends
	// and blocks entries belong to the partition of the block they
	// address. Every entry is only read or written under its owner's
	// lock. Pages of a logical address always stay on their chip, so both
	// ownership rules always name the same partition.
	l2p     []int32 // logical page -> physical page address (-1 unmapped)
	p2l     []int32 // physical page address -> logical page (-1 invalid/free)
	appends []uint8 // in-place appends performed on each physical page
	blocks  []blockInfo

	parts []*partition
	// stats is the live host-side counter set: atomics, so the hot write
	// and read paths of different chips never rendezvous on a stats lock.
	stats Stats

	// seq numbers every out-of-place page program. It is stored in the
	// page's OOB mapping tag, so crash recovery can order the copies of a
	// logical page found on Flash and keep only the newest.
	seq atomic.Uint64
}

// New creates an FTL on top of an erased device.
func New(dev *flashdev.Device, cfg Config) (*FTL, error) {
	f, err := newSkeleton(dev, cfg)
	if err != nil {
		return nil, err
	}
	for c := 0; c < f.chips; c++ {
		p := f.parts[c]
		for b := (c+1)*f.blocksPerChip - 1; b >= c*f.blocksPerChip; b-- {
			p.free = append(p.free, b)
		}
	}
	return f, nil
}

// newSkeleton builds an FTL with normalised configuration, computed
// capacity and empty mapping/free-list state. New fills the free lists for
// an erased device; Rebuild reconstructs them from a surviving Flash image.
func newSkeleton(dev *flashdev.Device, cfg Config) (*FTL, error) {
	geo := dev.Geometry()
	if cfg.OverprovisionPct <= 0 {
		cfg.OverprovisionPct = 0.08
	}
	if cfg.EccCoverBytes <= 0 || cfg.EccCoverBytes+cfg.EccTailBytes > geo.PageSize {
		cfg.EccCoverBytes = geo.PageSize
		cfg.EccTailBytes = 0
	}
	if cfg.EccTailBytes < 0 {
		cfg.EccTailBytes = 0
	}

	usable := 0
	for p := 0; p < geo.PagesPerBlock; p++ {
		if nand.PageUsable(dev.CellType(), cfg.FlashMode, p) {
			usable++
		}
	}
	if usable == 0 {
		return nil, fmt.Errorf("ftl: flash mode %v leaves no usable pages", cfg.FlashMode)
	}
	chips := dev.Chips()
	blocksPerChip := geo.Blocks / chips
	usablePerChip := usable * blocksPerChip
	// Over-provisioning and the GC head-room reserve apply per chip: each
	// partition garbage-collects independently and needs its own free
	// blocks.
	reserve := int(float64(usablePerChip) * cfg.OverprovisionPct)
	minReserve := (gcHighWater + 1) * usable
	if reserve < minReserve {
		reserve = minReserve
	}
	exportedPerChip := usablePerChip - reserve
	if exportedPerChip <= 0 {
		return nil, fmt.Errorf("ftl: device too small: %d usable pages per chip, %d reserved", usablePerChip, reserve)
	}
	exported := exportedPerChip * chips

	f := &FTL{
		dev:             dev,
		cfg:             cfg,
		geo:             geo,
		usablePerBlock:  usable,
		exportedPages:   exported,
		chips:           chips,
		blocksPerChip:   blocksPerChip,
		exportedPerChip: exportedPerChip,
		l2p:             make([]int32, exported),
		p2l:             make([]int32, geo.Blocks*geo.PagesPerBlock),
		appends:         make([]uint8, geo.Blocks*geo.PagesPerBlock),
		blocks:          make([]blockInfo, geo.Blocks),
	}
	for i := range f.l2p {
		f.l2p[i] = -1
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	// Seed the wear cache; on a freshly created device every count is 0,
	// but re-formatting an already used device must keep wear levelling
	// accurate.
	for b := range f.blocks {
		if wear, err := dev.BlockEraseCount(b); err == nil {
			f.blocks[b].eraseCount = wear
		}
	}
	for c := 0; c < chips; c++ {
		f.parts = append(f.parts, &partition{f: f, chip: c, firstBlock: c * blocksPerChip, active: -1,
			image: make([]byte, geo.PageSize)})
	}
	return f, nil
}

// Capacity returns the number of logical pages exported to the host.
func (f *FTL) Capacity() int { return f.exportedPages }

// UsablePerBlock returns the pages of a block that hold data (pSLC: the LSBs).
func (f *FTL) UsablePerBlock() int { return f.usablePerBlock }

// PageSize returns the logical and physical page size in bytes.
func (f *FTL) PageSize() int { return f.geo.PageSize }

// Config returns the effective configuration.
func (f *FTL) Config() Config { return f.cfg }

// Device returns the underlying Flash device.
func (f *FTL) Device() *flashdev.Device { return f.dev }

// Chips returns the number of chip partitions.
func (f *FTL) Chips() int { return f.chips }

// ChipOf returns the chip partition serving a logical page address.
func (f *FTL) ChipOf(lba int) int {
	if lba < 0 {
		return -1
	}
	return lba % f.chips
}

// Stats returns a snapshot of the FTL counters.
func (f *FTL) Stats() Stats {
	s := stat.Load(&f.stats)
	for _, p := range f.parts {
		s.GCStats = stat.Add(s.GCStats, stat.Load(&p.gc))
	}
	return s
}

// ChipStats returns the per-chip GC activity and free-block state.
func (f *FTL) ChipStats() []ChipStats {
	out := make([]ChipStats, len(f.parts))
	for i, p := range f.parts {
		p.mu.Lock()
		free := len(p.free)
		p.mu.Unlock()
		out[i] = ChipStats{Chip: i, GCStats: stat.Load(&p.gc), FreeBlocks: free, ExportedPages: f.exportedPerChip}
	}
	return out
}

// ppa helpers.
func (f *FTL) ppaOf(block, page int) int32 { return int32(block*f.geo.PagesPerBlock + page) }
func (f *FTL) blockOf(ppa int32) int       { return int(ppa) / f.geo.PagesPerBlock }
func (f *FTL) pageOf(ppa int32) int        { return int(ppa) % f.geo.PagesPerBlock }

// part returns the partition owning a logical page address.
func (f *FTL) part(lba int) *partition { return f.parts[lba%f.chips] }

// lock checks that lba is exported and returns its partition, locked; the
// caller unlocks it.
func (f *FTL) lock(lba int) (*partition, error) {
	if lba < 0 || lba >= len(f.l2p) {
		return nil, fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	p := f.part(lba)
	p.mu.Lock()
	return p, nil
}

// Mapped reports whether the logical page has been written.
func (f *FTL) Mapped(lba int) bool {
	p, err := f.lock(lba)
	if err != nil {
		return false
	}
	defer p.mu.Unlock()
	return f.l2p[lba] >= 0
}

// IsAppendTarget reports whether the physical page currently backing lba
// may accept further in-place appends (flash-mode safety and budget); it
// does not consider the content about to be appended.
func (f *FTL) IsAppendTarget(lba int) bool {
	p, err := f.lock(lba)
	if err != nil {
		return false
	}
	defer p.mu.Unlock()
	ppa, err := f.mappedPPA(lba)
	if err != nil {
		return false
	}
	return f.appendableLocked(ppa)
}

func (f *FTL) appendableLocked(ppa int32) bool {
	if !nand.AppendSafe(f.dev.CellType(), f.cfg.FlashMode, f.pageOf(ppa)) {
		return false
	}
	// The append budget is one delta ECC slot in the page's OOB per append.
	return int(f.appends[ppa]) < f.geo.DeltaSlots
}

// mappedPPA returns the physical page backing an exported lba; the caller
// holds its partition lock.
func (f *FTL) mappedPPA(lba int) (int32, error) {
	ppa := f.l2p[lba]
	if ppa < 0 {
		return -1, fmt.Errorf("%w: %d", ErrUnmapped, lba)
	}
	return ppa, nil
}

// ReadPage reads the logical page into buf (PageSize bytes). The partition
// lock is held across the device read: a same-chip GC run could otherwise
// migrate and erase the mapped page mid-read. Reads on different chips
// still proceed in parallel, and same-chip commands serialise at the chip
// anyway.
func (f *FTL) ReadPage(lba int, buf []byte) error {
	p, err := f.lock(lba)
	if err != nil {
		return err
	}
	defer p.mu.Unlock()
	ppa, err := f.mappedPPA(lba)
	if err != nil {
		return err
	}
	atomic.AddUint64(&f.stats.HostReads, 1)
	atomic.AddUint64(&f.stats.HostBytesRead, uint64(len(buf)))
	return f.dev.ReadPage(f.blockOf(ppa), f.pageOf(ppa), buf)
}

// Peek is ReadPage without a host read, device time or ECC (see
// flashdev.Device.Peek). For a page never written it returns ErrUnmapped
// bare, an answer the caller expects, so it allocates nothing.
func (f *FTL) Peek(lba int, buf []byte) error {
	p, err := f.lock(lba)
	if err != nil {
		return err
	}
	defer p.mu.Unlock()
	ppa := f.l2p[lba]
	if ppa < 0 {
		return ErrUnmapped
	}
	return f.dev.Peek(f.blockOf(ppa), f.pageOf(ppa), buf)
}

// WritePage writes a full logical page. With InPlaceMerge enabled the FTL
// first attempts to program the new image onto the currently mapped
// physical page (possible when the only changed bits are 1->0, i.e. the
// image only gained appended delta records); otherwise the page is written
// out-of-place and the old physical page is invalidated. The first return
// value reports whether the write was served in place.
func (f *FTL) WritePage(lba int, data []byte) (bool, error) {
	return f.writePage(lba, data, f.cfg.InPlaceMerge)
}

// WritePageOut writes a full logical page strictly out-of-place, never
// attempting an in-place merge even if the image happens to be bit-wise
// programmable onto the mapped physical page. Body rewrites must use this
// path: only delta-area appends are framed by per-record checksums and
// commit markers, so only they survive a torn in-place program detectably.
// A torn in-place BODY program would keep the old mapping tag valid while
// leaving an old/new byte mix — silent corruption. (Out-of-place programs
// are safe: a torn copy never validates its tag, so recovery falls back to
// the previous complete copy.) Recovery's scrub uses it too, for a page
// whose copy carries a torn append: the fresh copy gets a clean delta area
// and a new sequence tag, and the torn copy is invalidated.
func (f *FTL) WritePageOut(lba int, data []byte) error {
	_, err := f.writePage(lba, data, false)
	return err
}

// WriteImage is WritePage for an image build writes into the page it is
// handed: the partition's own, under the partition lock, valid until build
// returns. build must write all of it; it holds the partition's last image.
func (f *FTL) WriteImage(lba int, build func(image []byte)) (bool, error) {
	p, err := f.lock(lba)
	if err != nil {
		return false, err
	}
	defer p.mu.Unlock()
	build(p.image)
	return f.writeLocked(p, lba, p.image, f.cfg.InPlaceMerge)
}

// writePage writes a full logical page, in place when merge is set and the
// mapped physical page takes the image, out of place otherwise.
func (f *FTL) writePage(lba int, data []byte, merge bool) (bool, error) {
	if len(data) != f.geo.PageSize {
		return false, fmt.Errorf("ftl: page buffer %d bytes, want %d", len(data), f.geo.PageSize)
	}
	p, err := f.lock(lba)
	if err != nil {
		return false, err
	}
	defer p.mu.Unlock()
	return f.writeLocked(p, lba, data, merge)
}

// writeLocked is writePage under p, the locked partition of lba.
func (f *FTL) writeLocked(p *partition, lba int, data []byte, merge bool) (bool, error) {
	atomic.AddUint64(&f.stats.HostWrites, 1)
	atomic.AddUint64(&f.stats.HostBytesWritten, uint64(len(data)))

	if merge {
		if ppa := f.l2p[lba]; ppa >= 0 && f.appendableLocked(ppa) {
			if err := f.tryInPlaceLocked(ppa, data); err == nil {
				f.appends[ppa]++
				atomic.AddUint64(&f.stats.InPlaceAppends, 1)
				return true, nil
			}
		}
	}
	return false, p.writeOutOfPlaceLocked(lba, data)
}

// tryInPlaceLocked attempts to program data over the existing physical
// page. The device enforces the bit-clear-only rule, so an image that
// changed anything besides appended (previously erased) bytes fails and the
// caller falls back to an out-of-place write.
func (f *FTL) tryInPlaceLocked(ppa int32, data []byte) error {
	block, page := f.blockOf(ppa), f.pageOf(ppa)
	// The re-program writes the same cover/tail ECC header over itself (a
	// no-op on identical bits); the mapping tag from the page's original
	// out-of-place program stays valid — an in-place merge is not a new
	// version of the logical page, only a superset of its bits.
	err := f.dev.ProgramPageCovered(block, page, data, f.cfg.EccCoverBytes, f.cfg.EccTailBytes)
	if err == nil {
		return nil
	}
	if errors.Is(err, nand.ErrOverwriteViolation) || errors.Is(err, nand.ErrNOPExceeded) {
		return ErrNotAppendable
	}
	return err
}

// WriteDelta appends delta bytes at the given page offset to the physical
// page currently backing lba (the write_delta command of the native-Flash
// architecture). It fails with ErrNotAppendable when the mapped page cannot
// take the append, in which case the caller must issue a full WritePage.
func (f *FTL) WriteDelta(lba, offset int, delta []byte) error {
	// The partition lock is held across the device program so a same-chip
	// GC run cannot migrate the page out from under the append (which
	// would drop the delta and charge the append budget to a stale
	// physical page). Appends on different chips run in parallel.
	p, err := f.lock(lba)
	if err != nil {
		return err
	}
	defer p.mu.Unlock()
	ppa, err := f.mappedPPA(lba)
	if err != nil {
		return err
	}
	if !f.appendableLocked(ppa) {
		return ErrNotAppendable
	}
	atomic.AddUint64(&f.stats.HostWriteDeltas, 1)
	atomic.AddUint64(&f.stats.HostBytesWritten, uint64(len(delta)))

	_, err = f.dev.ProgramDelta(f.blockOf(ppa), f.pageOf(ppa), offset, delta)
	if err != nil {
		if errors.Is(err, nand.ErrOverwriteViolation) || errors.Is(err, nand.ErrNOPExceeded) ||
			errors.Is(err, flashdev.ErrNoDeltaSlot) {
			return ErrNotAppendable
		}
		return err
	}
	f.appends[ppa]++
	atomic.AddUint64(&f.stats.InPlaceAppends, 1)
	return nil
}

// writeOutOfPlaceLocked performs a traditional out-of-place update within
// the partition.
func (p *partition) writeOutOfPlaceLocked(lba int, data []byte) error {
	f := p.f
	ppa, err := p.allocateLocked(true)
	if err != nil {
		return err
	}
	block, page := f.blockOf(ppa), f.pageOf(ppa)
	// Every out-of-place program carries the mapping tag (lba, seq): crash
	// recovery scans the tags to rebuild l2p and order stale copies.
	if err := f.dev.ProgramPageTagged(block, page, data, f.cfg.EccCoverBytes, f.cfg.EccTailBytes, lba, f.seq.Add(1)); err != nil {
		return err
	}
	if old := f.l2p[lba]; old >= 0 {
		f.invalidateLocked(old)
		atomic.AddUint64(&f.stats.Invalidations, 1)
	}
	f.l2p[lba] = ppa
	f.p2l[ppa] = int32(lba)
	f.appends[ppa] = 0
	f.blocks[f.blockOf(ppa)].validCount++
	atomic.AddUint64(&f.stats.OutOfPlaceWrites, 1)
	return nil
}

func (f *FTL) invalidateLocked(ppa int32) {
	if f.p2l[ppa] >= 0 {
		f.p2l[ppa] = -1
		f.blocks[f.blockOf(ppa)].validCount--
	}
}

// allocateLocked returns the next usable page of the partition's active
// block, opening the least-worn free block when there is none or it is full.
// With collect set it first runs the garbage collector when free blocks run
// low; the collector's own migrations allocate without it, so garbage
// collection never recurses.
func (p *partition) allocateLocked(collect bool) (int32, error) {
	f := p.f
	for {
		if p.active >= 0 {
			blk := &f.blocks[p.active]
			for blk.nextPage < f.geo.PagesPerBlock {
				pg := blk.nextPage
				blk.nextPage++
				if nand.PageUsable(f.dev.CellType(), f.cfg.FlashMode, pg) {
					return f.ppaOf(p.active, pg), nil
				}
			}
			// Active block is full.
			blk.state = blockUsed
			p.active = -1
		}
		if collect {
			if err := p.ensureFreeLocked(); err != nil {
				return -1, err
			}
			// Garbage collection may have installed (and partially filled) a
			// new active block for its migrations; keep using it instead of
			// leaking it.
			if p.active >= 0 {
				continue
			}
		}
		if len(p.free) == 0 {
			return -1, ErrDeviceFull
		}
		p.active = p.popFreeLocked()
		f.blocks[p.active].state = blockActive
		f.blocks[p.active].nextPage = 0
	}
}

// popFreeLocked removes and returns the free block with the lowest cached
// erase count (simple wear levelling). The cache is maintained on every
// erase, so no device call is needed.
func (p *partition) popFreeLocked() int {
	f := p.f
	best, bestIdx, bestWear := -1, -1, int(^uint(0)>>1)
	for i, b := range p.free {
		if wear := f.blocks[b].eraseCount; wear < bestWear {
			best, bestIdx, bestWear = b, i, wear
		}
	}
	p.free = append(p.free[:bestIdx], p.free[bestIdx+1:]...)
	return best
}

// ensureFreeLocked runs garbage collection until the partition's free-block
// pool is above the low-water mark.
func (p *partition) ensureFreeLocked() error {
	if len(p.free) > gcLowWater {
		return nil
	}
	atomic.AddUint64(&p.gc.GCRuns, 1)
	for len(p.free) < gcHighWater {
		victim := p.pickVictimLocked()
		if victim < 0 {
			if len(p.free) > 0 {
				return nil
			}
			return ErrDeviceFull
		}
		if err := p.collectBlockLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// pickVictimLocked selects the partition's used block with the fewest valid
// pages (greedy policy). It returns -1 when no block can be reclaimed.
func (p *partition) pickVictimLocked() int {
	f := p.f
	best, bestValid := -1, int(^uint(0)>>1)
	for b := p.firstBlock; b < p.firstBlock+f.blocksPerChip; b++ {
		blk := &f.blocks[b]
		if blk.state != blockUsed {
			continue
		}
		if blk.validCount < bestValid {
			best, bestValid = b, blk.validCount
		}
	}
	if best >= 0 && bestValid >= f.usablePerBlock {
		// Every page of every candidate is valid: reclaiming would only
		// move data without freeing space.
		return -1
	}
	return best
}

// collectBlockLocked migrates the valid pages of the victim block and
// erases it. All migration targets stay within the partition, so GC on one
// chip never touches — or waits for — another chip.
func (p *partition) collectBlockLocked(victim int) error {
	f := p.f
	for pg := 0; pg < f.geo.PagesPerBlock; pg++ {
		ppa := f.ppaOf(victim, pg)
		lba := f.p2l[ppa]
		if lba < 0 {
			continue
		}
		dst, err := p.allocateLocked(false)
		if err != nil {
			return err
		}
		if err := f.dev.CopyPage(victim, pg, f.blockOf(dst), f.pageOf(dst)); err != nil {
			return err
		}
		atomic.AddUint64(&p.gc.GCMigrations, 1)
		f.p2l[ppa] = -1
		f.blocks[victim].validCount--
		f.l2p[lba] = dst
		f.p2l[dst] = lba
		f.appends[dst] = f.appends[ppa]
		f.appends[ppa] = 0
		f.blocks[f.blockOf(dst)].validCount++
	}
	if err := f.dev.EraseBlock(victim); err != nil {
		return err
	}
	atomic.AddUint64(&p.gc.GCErases, 1)
	for pg := 0; pg < f.geo.PagesPerBlock; pg++ {
		f.appends[f.ppaOf(victim, pg)] = 0
	}
	f.blocks[victim].state = blockFree
	f.blocks[victim].validCount = 0
	f.blocks[victim].nextPage = 0
	f.blocks[victim].eraseCount++
	p.free = append(p.free, victim)
	return nil
}

// FreeBlocks returns the current number of free blocks across all chips.
func (f *FTL) FreeBlocks() int {
	n := 0
	for _, p := range f.parts {
		p.mu.Lock()
		n += len(p.free)
		p.mu.Unlock()
	}
	return n
}
