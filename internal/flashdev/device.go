// Package flashdev assembles one or more simulated NAND chips into a Flash
// device with a command interface, an out-of-band (OOB) layout for ECC, and
// a virtual clock.
//
// The device offers exactly the commands the paper's storage architecture
// needs: whole-page read and program, block erase, and the partial-program
// primitive used by write_delta to append a delta record to an already
// programmed Flash page. All commands advance a deterministic virtual clock
// according to a configurable latency model, so layers above can derive
// throughput figures without depending on wall-clock time.
//
// The device itself holds no lock: every chip synchronises independently
// (inside nand.Chip), every chip accumulates its own virtual time, and the
// device-level statistics are atomic counters. Commands addressed to
// different chips therefore proceed fully in parallel, and the device clock
// returned by Now is the merge (maximum) of the per-chip clocks plus a
// shared atomic adjustment fed by AdvanceClock — virtual time models a
// device whose chips operate concurrently.
//
// Virtual-time model: each chip's accumulator is its busy time, and Now is
// the makespan assuming commands pipeline onto their chips back-to-back —
// as if every command were queued to its chip the moment the previous
// command on that chip finished, regardless of when the host actually
// issued it. This keeps the clock deterministic (independent of goroutine
// scheduling) and exact for saturated chips; for a host that issues
// strictly sequential commands across chips it is the idealised lower
// bound a command queue could achieve, not the synchronous-host latency.
package flashdev

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ipa/internal/ecc"
	"ipa/internal/nand"
	"ipa/internal/stat"
)

// OOB layout constants. The OOB area of every page holds, in order, the
// cover length of the initial ECC, the initial ECC itself, the FTL mapping
// tag (logical address and write sequence number, with their own ECC — what
// lets crash recovery rebuild the logical-to-physical mapping from the
// Flash image alone), and a number of delta-record ECC slots (Figure 3 of
// the paper).
const (
	// The initial ECC covers the leading eccCover bytes of the page plus,
	// optionally, the trailing eccTail bytes (the page footer behind the
	// delta-record area): both lengths are stored in front of the code so
	// reads and recovery scans know the protected regions. Without the
	// tail cover a torn whole-page program could persist a valid body but
	// a corrupt footer and recovery could not tell.
	oobCoverLenSize = 2
	oobTailLenSize  = 2
	oobInitialOff   = oobCoverLenSize + oobTailLenSize
	// oobTagOff is the offset of the FTL mapping tag: lba (4), seq (8) and
	// a dedicated ECC so a torn program cannot forge a valid tag.
	oobTagOff       = oobInitialOff + ecc.CodeSize
	tagBody         = 4 + 8
	TagSize         = tagBody + ecc.CodeSize
	oobSlotsOff     = oobTagOff + TagSize
	deltaSlotHeader = 4 // offset (2) + length (2)
	// DeltaSlotSize is the OOB space consumed by one delta-record ECC slot.
	DeltaSlotSize = deltaSlotHeader + ecc.CodeSize
)

// blankLen is the stored length of a region whose OOB header was never
// programmed (erased cells read 0xFFFF).
const blankLen = 0xFFFF

// oobStackSize is the largest OOB area whose per-command scratch copy stays
// on the caller's stack; every geometry in use has 128 bytes or fewer.
const oobStackSize = 256

// oobScratch returns OOBSize bytes to read a page's OOB area into: the
// caller's stack array where that is large enough.
func (d *Device) oobScratch(stack *[oobStackSize]byte) []byte {
	n := d.cfg.Chip.Geometry.OOBSize
	if n > len(stack) {
		return make([]byte, n)
	}
	return stack[:n]
}

// Errors returned by the device.
var (
	// ErrNoDeltaSlot is returned by ProgramDelta when all OOB delta ECC
	// slots of the page are already in use.
	ErrNoDeltaSlot = errors.New("flashdev: no free delta ECC slot in OOB")
	// ErrCorrupted is returned when ECC verification fails beyond repair.
	ErrCorrupted = errors.New("flashdev: uncorrectable data corruption")
	// ErrOutOfRange mirrors nand.ErrOutOfRange at device granularity.
	ErrOutOfRange = errors.New("flashdev: address out of range")
)

// Config configures a Flash device.
type Config struct {
	// Chips is the number of identical NAND chips; their blocks are
	// concatenated into one linear block address space.
	Chips int
	// Chip is the per-chip configuration.
	Chip nand.Config
	// Latency is the timing model driving the virtual clock.
	Latency LatencyModel
	// DisableECC turns off ECC generation and verification (useful for
	// micro-benchmarks isolating the ECC cost).
	DisableECC bool
}

// Stats aggregates device-level counters. The device's own value is its
// live counter set, bumped atomically.
type Stats struct {
	FlashPageReads     uint64
	FlashPagePrograms  uint64
	FlashDeltaPrograms uint64
	FlashBlockErases   uint64
	BytesToDevice      uint64 // bytes transferred host -> device
	BytesFromDevice    uint64 // bytes transferred device -> host
	CorrectedBits      uint64
	UncorrectableReads uint64
	// InterferenceBits is the chips' count of bits flipped in paired pages;
	// Stats sums it, the live set never holds it.
	InterferenceBits uint64
}

// chipClock is one chip's virtual-time accumulator, padded onto its own
// cache line so chips advancing their clocks concurrently do not false-share.
type chipClock struct {
	ns atomic.Int64
	_  [7]int64
}

// OpHook observes every chip operation as it starts: the chip index and
// the operation class (nand.OpRead, nand.OpProgram, nand.OpDeltaProgram or
// nand.OpErase). The chaos harness uses it to inject transient device
// latency — a hook that sleeps stalls exactly the callers touching that
// chip, and one that calls AdvanceClock charges virtual time. Hooks run on
// the caller's goroutine before the operation executes and must be safe
// for concurrent use.
type OpHook func(chip int, op nand.FaultOp)

// Device is a simulated Flash storage device. All methods are safe for
// concurrent use; operations on different chips never contend.
type Device struct {
	cfg   Config
	chips []*nand.Chip

	// Per-chip virtual clocks plus the shared adjustment charged by
	// AdvanceClock. Now() merges them.
	clocks []chipClock
	adjust atomic.Int64

	// opHook, when set, observes every chip operation (see OpHook).
	opHook atomic.Pointer[OpHook]

	stats Stats
}

// New creates a device with all blocks erased. Every page's OOB area must
// hold at least the initial-ECC header and the mapping tag.
func New(cfg Config) (*Device, error) {
	if cfg.Chips <= 0 {
		cfg.Chips = 1
	}
	if oob := cfg.Chip.Geometry.OOBSize; oob < oobSlotsOff {
		return nil, fmt.Errorf("flashdev: OOB area of %d bytes, want at least %d", oob, oobSlotsOff)
	}
	if cfg.Latency == (LatencyModel{}) {
		cfg.Latency = DefaultLatencyModel()
	}
	d := &Device{cfg: cfg, clocks: make([]chipClock, cfg.Chips)}
	for i := 0; i < cfg.Chips; i++ {
		chipCfg := cfg.Chip
		chipCfg.Seed = cfg.Chip.Seed + int64(i)
		chip, err := nand.NewChip(chipCfg)
		if err != nil {
			return nil, fmt.Errorf("flashdev: chip %d: %w", i, err)
		}
		d.chips = append(d.chips, chip)
	}
	return d, nil
}

// Geometry describes the device-level geometry.
type Geometry struct {
	Blocks        int // total blocks across all chips
	PagesPerBlock int
	PageSize      int
	OOBSize       int
	DeltaSlots    int // delta ECC slots available per page
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry {
	g := d.cfg.Chip.Geometry
	return Geometry{
		Blocks:        g.Blocks * d.cfg.Chips,
		PagesPerBlock: g.PagesPerBlock,
		PageSize:      g.PageSize,
		OOBSize:       g.OOBSize,
		DeltaSlots:    (g.OOBSize - oobSlotsOff) / DeltaSlotSize,
	}
}

// CellType returns the cell technology of the underlying chips.
func (d *Device) CellType() nand.CellType { return d.cfg.Chip.Cell }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Chips returns the number of NAND chips of the device.
func (d *Device) Chips() int { return len(d.chips) }

// ChipOf returns the index of the chip holding the device block, or -1 for
// out-of-range blocks.
func (d *Device) ChipOf(block int) int {
	chip, _, _, err := d.locate(block)
	if err != nil {
		return -1
	}
	return chip
}

// Now returns the current virtual time of the device: the furthest-advanced
// per-chip clock plus the shared adjustment. Chips operate in parallel, so
// elapsed virtual time is bounded by the busiest chip, not by the sum of
// all chip activity.
func (d *Device) Now() time.Duration {
	var max int64
	for i := range d.clocks {
		if ns := d.clocks[i].ns.Load(); ns > max {
			max = ns
		}
	}
	return time.Duration(max + d.adjust.Load())
}

// ChipClocks returns the per-chip virtual-time accumulators (excluding the
// shared AdvanceClock adjustment). The spread across chips shows how evenly
// the load is striped.
func (d *Device) ChipClocks() []time.Duration {
	out := make([]time.Duration, len(d.clocks))
	for i := range d.clocks {
		out[i] = time.Duration(d.clocks[i].ns.Load())
	}
	return out
}

// AdvanceClock adds extra virtual time, e.g. CPU cost charged by layers
// above the device. The adjustment is shared across all chips.
func (d *Device) AdvanceClock(dt time.Duration) {
	d.adjust.Add(int64(dt))
}

// advance charges dt of virtual time to one chip's clock.
func (d *Device) advance(chip int, dt time.Duration) {
	d.clocks[chip].ns.Add(int64(dt))
}

// SetOpHook installs (or, with nil, removes) the device operation hook.
// Safe to call while operations are in flight; in-flight operations may
// still observe the previous hook.
func (d *Device) SetOpHook(h OpHook) {
	if h == nil {
		d.opHook.Store(nil)
		return
	}
	d.opHook.Store(&h)
}

// hook invokes the installed operation hook, if any.
func (d *Device) hook(chip int, op nand.FaultOp) {
	if h := d.opHook.Load(); h != nil {
		(*h)(chip, op)
	}
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	s := stat.Load(&d.stats)
	for _, c := range d.chips {
		s.InterferenceBits += c.Stats().InterferenceBits
	}
	return s
}

// PerChipStats returns the raw operation counters of every chip, indexed by
// chip. Chip counters accumulate over the device lifetime, like every
// counter of the device.
func (d *Device) PerChipStats() []nand.Stats {
	out := make([]nand.Stats, len(d.chips))
	for i, c := range d.chips {
		out[i] = c.Stats()
	}
	return out
}

// TotalErases returns the total number of block erases performed, a proxy
// for device wear.
func (d *Device) TotalErases() uint64 {
	var sum uint64
	for _, c := range d.chips {
		sum += c.TotalErases()
	}
	return sum
}

// MaxEraseCount returns the highest per-block erase count on the device.
func (d *Device) MaxEraseCount() int {
	max := 0
	for _, c := range d.chips {
		if m := c.MaxEraseCount(); m > max {
			max = m
		}
	}
	return max
}

// EnduranceCycles returns the per-block endurance of the underlying chips.
func (d *Device) EnduranceCycles() int {
	return d.chips[0].Config().EnduranceCycles
}

// BlockEraseCount returns the erase count of a device block.
func (d *Device) BlockEraseCount(block int) (int, error) {
	_, chip, b, err := d.locate(block)
	if err != nil {
		return 0, err
	}
	return chip.EraseCount(b)
}

// CopyPage migrates a programmed page to another (erased) location of the
// same chip, as done by garbage collection (copy-back). Data and OOB are
// copied verbatim inside the chip, so the initial ECC and every
// per-delta-record ECC slot remain valid at the destination and further
// appends can still use the remaining slots.
func (d *Device) CopyPage(srcBlock, srcPage, dstBlock, dstPage int) error {
	chipIdx, chip, sb, err := d.locate(srcBlock)
	if err != nil {
		return err
	}
	dstChipIdx, _, db, err := d.locate(dstBlock)
	if err != nil {
		return err
	}
	if dstChipIdx != chipIdx {
		return fmt.Errorf("flashdev: copy-back from chip %d to chip %d", chipIdx, dstChipIdx)
	}
	d.hook(chipIdx, nand.OpRead)
	d.hook(chipIdx, nand.OpProgram)
	if err := chip.CopyBack(sb, srcPage, db, dstPage); err != nil {
		return err
	}
	atomic.AddUint64(&d.stats.FlashPageReads, 1)
	atomic.AddUint64(&d.stats.FlashPagePrograms, 1)
	lsb := nand.IsLSBPage(d.cfg.Chip.Cell, dstPage)
	// Copy-back stays on the chip: no host bus transfer is charged, only
	// the read and the program.
	d.advance(chipIdx, d.cfg.Latency.PageRead+d.cfg.Latency.programTime(d.cfg.Chip.Cell == nand.SLC, lsb))
	return nil
}

// locate translates a device block index into (chip index, chip, chip-local
// block).
func (d *Device) locate(block int) (int, *nand.Chip, int, error) {
	per := d.cfg.Chip.Geometry.Blocks
	chip := block / per
	if block < 0 || chip >= len(d.chips) {
		return 0, nil, 0, fmt.Errorf("%w: block %d", ErrOutOfRange, block)
	}
	return chip, d.chips[chip], block % per, nil
}

// ReadPage reads the full data area of a page into buf (which must be
// PageSize bytes), verifies the ECC of the initially programmed region and
// of every appended delta record, and corrects single-bit errors. It reads
// no mapping tag and fails with ErrCorrupted unless the initial region and
// every programmed delta slot verify, so it reads every page ScanPage
// reports body-valid and not torn, and none whose body ScanPage rejects.
func (d *Device) ReadPage(block, page int, buf []byte) error {
	chipIdx, chip, b, err := d.locate(block)
	if err != nil {
		return err
	}
	g := d.cfg.Chip.Geometry
	if len(buf) != g.PageSize {
		return fmt.Errorf("flashdev: ReadPage buffer %d bytes, want %d", len(buf), g.PageSize)
	}
	d.hook(chipIdx, nand.OpRead)
	var stack [oobStackSize]byte
	oob := d.oobScratch(&stack)
	if err := chip.ReadPage(b, page, buf, oob); err != nil {
		return err
	}
	atomic.AddUint64(&d.stats.FlashPageReads, 1)
	atomic.AddUint64(&d.stats.BytesFromDevice, uint64(len(buf)))
	d.advance(chipIdx, d.cfg.Latency.PageRead+d.cfg.Latency.transfer(len(buf)))
	if d.cfg.DisableECC {
		return nil
	}
	if _, _, err := d.decode(buf, oob); err != nil {
		atomic.AddUint64(&d.stats.UncorrectableReads, 1)
		return fmt.Errorf("%w: %v", ErrCorrupted, err)
	}
	return nil
}

// Peek copies the raw data area of a page into buf as nand.Chip.Peek does:
// no clock, no op hook, no read counted, and no ECC decode (about the cost
// of the copy), so the bytes are exact unless the chips inject program
// interference (InterferenceProb > 0). It is for measurements, not data.
func (d *Device) Peek(block, page int, buf []byte) error {
	_, chip, b, err := d.locate(block)
	if err != nil {
		return err
	}
	return chip.Peek(b, page, buf)
}

// decode verifies a page image against its OOB area, the one reader of the
// page format (Figure 3 of the paper): first the initial region (its cover
// and tail lengths and their ECC), then the delta-record slots in order. It
// stops at the first region that fails and corrects single-bit errors in buf
// up to there. A slot is blank only when all its bytes are erased, and a
// programmed slot behind a blank one fails. It reports whether the initial
// region verified and how many delta records did; err is nil exactly when
// the initial region and every programmed slot verified.
func (d *Device) decode(buf, oob []byte) (bodyValid bool, records int, err error) {
	coverLen := int(binary.LittleEndian.Uint16(oob[0:oobCoverLenSize]))
	tailLen := int(binary.LittleEndian.Uint16(oob[oobCoverLenSize:oobInitialOff]))
	code := oob[oobInitialOff:oobTagOff]
	switch {
	case coverLen == blankLen || tailLen == blankLen || ecc.Blank(code):
		return false, 0, errors.New("initial region has no ECC header")
	case coverLen+tailLen > len(buf):
		return false, 0, errors.New("initial region header out of range")
	}
	res, err := ecc.DecodePage(buf[:coverLen], buf[len(buf)-tailLen:], code)
	if err != nil {
		return false, 0, fmt.Errorf("initial region: %w", err)
	}
	d.countCorrected(res.Corrected)
	for s := 0; s < d.Geometry().DeltaSlots; s++ {
		slot := oob[oobSlotsOff+s*DeltaSlotSize:][:DeltaSlotSize]
		if ecc.Blank(slot) {
			continue
		}
		if s != records {
			return true, records, fmt.Errorf("delta slot %d programmed behind blank slot %d", s, records)
		}
		dOff := int(binary.LittleEndian.Uint16(slot[0:2]))
		dLen := int(binary.LittleEndian.Uint16(slot[2:4]))
		if dOff+dLen > len(buf) {
			return true, records, fmt.Errorf("delta slot %d header out of range", s)
		}
		res, err := ecc.Decode(buf[dOff:dOff+dLen], slot[deltaSlotHeader:])
		if err != nil {
			return true, records, fmt.Errorf("delta slot %d: %w", s, err)
		}
		d.countCorrected(res.Corrected)
		records++
	}
	return true, records, nil
}

func (d *Device) countCorrected(n int) {
	if n == 0 {
		return
	}
	atomic.AddUint64(&d.stats.CorrectedBits, uint64(n))
}

// ProgramPageCovered programs the full data area of a page. The initial ECC
// protects the leading eccCover bytes and the trailing eccTail bytes,
// leaving the delta-record area between them open for appends; a cover of
// len(data) protects the whole page.
func (d *Device) ProgramPageCovered(block, page int, data []byte, eccCover, eccTail int) error {
	return d.programPage(block, page, data, eccCover, eccTail, nil)
}

// encodeTag writes the OOB mapping-tag bytes for (lba, seq) into tag: the
// logical address, the write sequence number and an ECC over both, so a torn
// program cannot leave a forged-but-valid tag behind.
func encodeTag(tag *[TagSize]byte, lba int, seq uint64) {
	binary.LittleEndian.PutUint32(tag[0:4], uint32(lba))
	binary.LittleEndian.PutUint64(tag[4:12], seq)
	ecc.EncodeSplit(tag[tagBody:], tag[:tagBody], nil)
}

// ProgramPageTagged is ProgramPageCovered plus the FTL mapping tag: the
// logical page address and a monotonically increasing write sequence number
// are stored, with their own ECC, in the page's OOB area. Crash recovery
// scans these tags to rebuild the logical-to-physical mapping from the
// Flash image alone and to order stale copies of the same logical page. The
// tag is written even when data ECC is disabled — it is FTL metadata.
func (d *Device) ProgramPageTagged(block, page int, data []byte, eccCover, eccTail int, lba int, seq uint64) error {
	var tag [TagSize]byte
	encodeTag(&tag, lba, seq)
	return d.programPage(block, page, data, eccCover, eccTail, tag[:])
}

func (d *Device) programPage(block, page int, data []byte, eccCover, eccTail int, tag []byte) error {
	chipIdx, chip, b, err := d.locate(block)
	if err != nil {
		return err
	}
	g := d.cfg.Chip.Geometry
	if len(data) != g.PageSize {
		return fmt.Errorf("flashdev: program buffer %d bytes, want %d", len(data), g.PageSize)
	}
	if eccCover < 0 || eccTail < 0 || eccCover+eccTail > len(data) {
		return fmt.Errorf("flashdev: ecc cover %d+%d out of range", eccCover, eccTail)
	}
	d.hook(chipIdx, nand.OpProgram)
	oobLen := 0
	if tag != nil {
		oobLen = oobSlotsOff
	} else if !d.cfg.DisableECC {
		oobLen = oobTagOff
	}
	// Erased filler (0xFF) for the regions not written: programming a 0xFF
	// byte leaves the cells untouched.
	var stack [oobSlotsOff]byte
	oob := stack[:oobLen]
	nand.FillErased(oob)
	if !d.cfg.DisableECC {
		binary.LittleEndian.PutUint16(oob[0:oobCoverLenSize], uint16(eccCover))
		binary.LittleEndian.PutUint16(oob[oobCoverLenSize:oobInitialOff], uint16(eccTail))
		// The code of cover‖tail, from the page image where it lies.
		ecc.EncodePage(oob[oobInitialOff:], data[:eccCover], data[len(data)-eccTail:])
	}
	if tag != nil {
		copy(oob[oobTagOff:], tag)
	}
	if err := chip.Program(b, page, data, oob); err != nil {
		return err
	}
	atomic.AddUint64(&d.stats.FlashPagePrograms, 1)
	atomic.AddUint64(&d.stats.BytesToDevice, uint64(len(data)))
	lsb := nand.IsLSBPage(d.cfg.Chip.Cell, page)
	d.advance(chipIdx, d.cfg.Latency.programTime(d.cfg.Chip.Cell == nand.SLC, lsb)+
		d.cfg.Latency.transfer(len(data)))
	return nil
}

// ProgramDelta appends delta bytes to an already programmed page by
// partially programming the byte range [offset, offset+len(delta)) of the
// data area and recording a dedicated ECC for the delta in the next free
// OOB slot. It returns the slot index used. This is the device half of the
// write_delta command.
func (d *Device) ProgramDelta(block, page, offset int, delta []byte) (int, error) {
	chipIdx, chip, b, err := d.locate(block)
	if err != nil {
		return 0, err
	}
	g := d.cfg.Chip.Geometry
	if offset < 0 || offset+len(delta) > g.PageSize {
		return 0, fmt.Errorf("flashdev: delta [%d,%d) out of page", offset, offset+len(delta))
	}
	d.hook(chipIdx, nand.OpDeltaProgram)
	slot := -1
	var oobOff int
	var oobData []byte
	var stack [oobStackSize]byte
	var slotBuf [DeltaSlotSize]byte
	if !d.cfg.DisableECC {
		// Find the first blank delta slot.
		oob := d.oobScratch(&stack)
		if err := chip.ReadPage(b, page, nil, oob); err != nil {
			return 0, err
		}
		geo := d.Geometry()
		for s := 0; s < geo.DeltaSlots; s++ {
			off := oobSlotsOff + s*DeltaSlotSize
			if ecc.Blank(oob[off : off+DeltaSlotSize]) {
				slot = s
				oobOff = off
				break
			}
		}
		if slot < 0 {
			return 0, ErrNoDeltaSlot
		}
		oobData = slotBuf[:]
		binary.LittleEndian.PutUint16(oobData[0:2], uint16(offset))
		binary.LittleEndian.PutUint16(oobData[2:4], uint16(len(delta)))
		ecc.EncodeSplit(oobData[deltaSlotHeader:], delta, nil)
	}
	if err := chip.ProgramPartial(b, page, offset, delta, oobOff, oobData); err != nil {
		return 0, err
	}
	atomic.AddUint64(&d.stats.FlashDeltaPrograms, 1)
	atomic.AddUint64(&d.stats.BytesToDevice, uint64(len(delta)))
	lsb := nand.IsLSBPage(d.cfg.Chip.Cell, page)
	d.advance(chipIdx, d.cfg.Latency.programTime(d.cfg.Chip.Cell == nand.SLC, lsb)+
		d.cfg.Latency.transfer(len(delta)))
	return slot, nil
}

// EraseBlock erases a block.
func (d *Device) EraseBlock(block int) error {
	chipIdx, chip, b, err := d.locate(block)
	if err != nil {
		return err
	}
	d.hook(chipIdx, nand.OpErase)
	if err := chip.Erase(b); err != nil {
		return err
	}
	atomic.AddUint64(&d.stats.FlashBlockErases, 1)
	d.advance(chipIdx, d.cfg.Latency.BlockErase)
	return nil
}
