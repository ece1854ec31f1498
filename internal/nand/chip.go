package nand

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by chip operations.
var (
	// ErrOverwriteViolation is returned by Program when the new data would
	// require a 0->1 bit transition (charge removal) and the chip is
	// configured with StrictOverwrite.
	ErrOverwriteViolation = errors.New("nand: program requires 0->1 transition (erase needed)")
	// ErrNOPExceeded is returned when a page has exhausted its partial
	// program budget.
	ErrNOPExceeded = errors.New("nand: partial program budget (NOP) exceeded")
	// ErrWornOut is returned when a block has exceeded its endurance.
	ErrWornOut = errors.New("nand: block exceeded endurance (worn out)")
	// ErrOutOfRange is returned for addresses outside the chip geometry.
	ErrOutOfRange = errors.New("nand: address out of range")
	// ErrBadLength is returned for buffers that do not fit the geometry.
	ErrBadLength = errors.New("nand: buffer length out of range")
)

// PageState describes the lifecycle state of a Flash page.
type PageState int

const (
	// PageErased means the page has not been programmed since the last
	// block erase; it reads as all 0xFF.
	PageErased PageState = iota
	// PageProgrammed means the page holds data.
	PageProgrammed
)

// page is the state of one physical Flash page.
type page struct {
	data     []byte // nil while erased
	oob      []byte // nil while erased
	state    PageState
	programs int // number of program operations since the last erase
}

// block is one erase unit.
type block struct {
	pages      []page
	eraseCount int
	wornOut    bool
}

// Stats aggregates the raw operation counters of a chip.
type Stats struct {
	PageReads        uint64
	PagePrograms     uint64 // full page programs
	PartialPrograms  uint64 // partial (in-place append) programs
	BlockErases      uint64
	InterferenceBits uint64 // bits flipped by injected program interference
	OverwriteDenied  uint64 // programs rejected due to 0->1 transitions
}

// Chip simulates a single NAND Flash chip.
type Chip struct {
	mu     sync.Mutex
	cfg    Config
	blocks []block
	stats  Stats
	rng    *prng

	// Page arrays that Erase took from their pages, for the next first
	// programs to reuse. Arrays are allocated only while a list is empty, a
	// block's worth at a time, and every erased page returns its own, so the
	// arrays of a chip outnumber its pages by less than one block's. Their
	// contents are stale: whoever takes one overwrites all of it.
	freeData, freeOOB [][]byte
}

// NewChip creates a chip in the fully erased state.
func NewChip(cfg Config) (*Chip, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Chip{
		cfg:    cfg,
		blocks: make([]block, cfg.Geometry.Blocks),
		rng:    newPRNG(uint64(cfg.Seed) + 0x9e3779b97f4a7c15),
	}
	for i := range c.blocks {
		c.blocks[i].pages = make([]page, cfg.Geometry.PagesPerBlock)
	}
	return c, nil
}

// Config returns the configuration the chip was created with (with defaults
// applied).
func (c *Chip) Config() Config { return c.cfg }

// Geometry returns the chip geometry.
func (c *Chip) Geometry() Geometry { return c.cfg.Geometry }

// Stats returns a snapshot of the operation counters.
func (c *Chip) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// EraseCount returns the number of erase cycles block b has seen.
func (c *Chip) EraseCount(b int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b < 0 || b >= len(c.blocks) {
		return 0, ErrOutOfRange
	}
	return c.blocks[b].eraseCount, nil
}

// MaxEraseCount returns the highest erase count across all blocks.
func (c *Chip) MaxEraseCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := 0
	for i := range c.blocks {
		if c.blocks[i].eraseCount > max {
			max = c.blocks[i].eraseCount
		}
	}
	return max
}

// TotalErases returns the sum of erase counts across all blocks.
func (c *Chip) TotalErases() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum uint64
	for i := range c.blocks {
		sum += uint64(c.blocks[i].eraseCount)
	}
	return sum
}

// PageInfo describes the observable state of a page.
type PageInfo struct {
	State    PageState
	Programs int
}

// PageStatus returns the lifecycle state of the addressed page.
func (c *Chip) PageStatus(b, p int) (PageInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pg, err := c.page(b, p)
	if err != nil {
		return PageInfo{}, err
	}
	return PageInfo{State: pg.state, Programs: pg.programs}, nil
}

func (c *Chip) page(b, p int) (*page, error) {
	if b < 0 || b >= len(c.blocks) {
		return nil, fmt.Errorf("%w: block %d", ErrOutOfRange, b)
	}
	if p < 0 || p >= c.cfg.Geometry.PagesPerBlock {
		return nil, fmt.Errorf("%w: page %d", ErrOutOfRange, p)
	}
	return &c.blocks[b].pages[p], nil
}

// ReadPage copies the data and OOB contents of the addressed page into the
// supplied buffers. Buffers may be nil to skip the respective area; a
// shorter buffer receives a prefix. Erased pages read as 0xFF.
func (c *Chip) ReadPage(b, p int, data, oob []byte) error {
	if err := c.cfg.Faults.alive(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pg, err := c.page(b, p)
	if err != nil {
		return err
	}
	if len(data) > c.cfg.Geometry.PageSize || len(oob) > c.cfg.Geometry.OOBSize {
		return ErrBadLength
	}
	c.stats.PageReads++
	fillRead(data, pg.data)
	fillRead(oob, pg.oob)
	return nil
}

// Peek copies the data area of the addressed page into data as ReadPage
// does, but is no chip command: it counts no read and is no fault point.
func (c *Chip) Peek(b, p int, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	pg, err := c.page(b, p)
	if err != nil {
		return err
	}
	if len(data) > c.cfg.Geometry.PageSize {
		return ErrBadLength
	}
	fillRead(data, pg.data)
	return nil
}

// fillRead copies src into dst, padding with 0xFF where src is shorter or nil.
func fillRead(dst, src []byte) {
	if dst == nil {
		return
	}
	FillErased(dst[copy(dst, src):])
}

// Program writes a full page (data and OOB). The operation obeys the
// physics of NAND programming: every bit may only stay or transition from
// 1 to 0. Programming an already programmed page is allowed as long as the
// constraint holds and the NOP budget is not exhausted; this is the
// mechanism In-Place Appends builds on.
func (c *Chip) Program(b, p int, data, oob []byte) error {
	return c.program(b, p, 0, data, 0, oob, false)
}

// ProgramPartial programs only the byte range [dataOff, dataOff+len(data))
// of the page and [oobOff, oobOff+len(oob)) of the OOB area, leaving all
// other cells untouched. This models the append of a delta record to the
// reserved area of an already programmed Flash page.
func (c *Chip) ProgramPartial(b, p, dataOff int, data []byte, oobOff int, oob []byte) error {
	return c.program(b, p, dataOff, data, oobOff, oob, true)
}

// CopyBack programs the contents of page (sb, sp) onto page (db, dp) of the
// same chip — a ReadPage of the whole source followed by a Program of what
// it returned, counted, admitted and faulted as those two commands, without
// the data leaving the chip.
func (c *Chip) CopyBack(sb, sp, db, dp int) error {
	if err := c.cfg.Faults.alive(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	src, err := c.page(sb, sp)
	if err != nil {
		return err
	}
	c.stats.PageReads++
	data, oob := src.data, src.oob
	if data == nil {
		// An erased source reads as all ones.
		g := c.cfg.Geometry
		data, oob = make([]byte, g.PageSize), make([]byte, g.OOBSize)
		FillErased(data)
		FillErased(oob)
	}
	return c.programLocked(db, dp, 0, data, 0, oob, false)
}

func (c *Chip) program(b, p, dataOff int, data []byte, oobOff int, oob []byte, partial bool) error {
	if err := c.cfg.Faults.alive(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.programLocked(b, p, dataOff, data, oobOff, oob, partial)
}

// programLocked is program under the chip mutex, on a chip that has power.
func (c *Chip) programLocked(b, p, dataOff int, data []byte, oobOff int, oob []byte, partial bool) error {
	pg, err := c.page(b, p)
	if err != nil {
		return err
	}
	blk := &c.blocks[b]
	g := c.cfg.Geometry
	if dataOff < 0 || dataOff+len(data) > g.PageSize {
		return fmt.Errorf("%w: data [%d,%d)", ErrBadLength, dataOff, dataOff+len(data))
	}
	if oobOff < 0 || oobOff+len(oob) > g.OOBSize {
		return fmt.Errorf("%w: oob [%d,%d)", ErrBadLength, oobOff, oobOff+len(oob))
	}
	// Admission comes before the fault step: a command the chip refuses
	// never starts, so it is not a fault point and cannot tear. Layers above
	// rely on the refusal (the FTL offers merge images it expects to be
	// turned down); a torn prefix of one would corrupt a live page.
	if blk.wornOut {
		return fmt.Errorf("%w: block %d", ErrWornOut, b)
	}
	if pg.programs >= c.cfg.MaxProgramsPerPage {
		return fmt.Errorf("%w: page %d/%d has %d programs", ErrNOPExceeded, b, p, pg.programs)
	}
	// The bit-clear-only constraint is checked before any cell is touched,
	// so the operation is atomic under StrictOverwrite. Erased pages hold no
	// arrays and accept any pattern.
	if c.cfg.StrictOverwrite && pg.data != nil {
		if violatesOverwrite(pg.data[dataOff:dataOff+len(data)], data) ||
			violatesOverwrite(pg.oob[oobOff:oobOff+len(oob)], oob) {
			c.stats.OverwriteDenied++
			return fmt.Errorf("%w: block %d page %d", ErrOverwriteViolation, b, p)
		}
	}
	act := actProceed
	if c.cfg.Faults != nil {
		op := OpProgram
		if partial {
			op = OpDeltaProgram
		}
		if act, err = c.cfg.Faults.step(op); err != nil {
			return err
		}
		if act == actTorn {
			// A power cut mid-program: deterministic prefixes of the data
			// and OOB bytes reach the cells, everything else stays untouched.
			data = data[:c.cfg.Faults.tornLen(len(data))]
			oob = oob[:c.cfg.Faults.tornLen(len(oob))]
			if len(data) == 0 && len(oob) == 0 {
				return ErrPowerLost
			}
		}
	}
	programCells(&pg.data, &c.freeData, g.PageSize, g.PagesPerBlock, dataOff, data)
	programCells(&pg.oob, &c.freeOOB, g.OOBSize, g.PagesPerBlock, oobOff, oob)
	pg.state = PageProgrammed
	pg.programs++
	if partial {
		c.stats.PartialPrograms++
	} else {
		c.stats.PagePrograms++
	}
	if act == actTorn {
		return ErrPowerLost
	}
	// Program interference: re-programming an MLC page may disturb the
	// page sharing its wordline if that page already carries data.
	if c.cfg.Cell == MLC && pg.programs > 1 && c.cfg.InterferenceProb > 0 {
		c.maybeDisturbPaired(b, p)
	}
	if act == actAfter {
		// The cells hold the full program, but power died before the
		// device could acknowledge: the host sees a failed command.
		return ErrPowerLost
	}
	return nil
}

// programCells programs src into the page array *cells at off. A page
// erased since its last program has no array yet (erased pages hold no
// storage): all its bits are 1, so AND-ing src into them is copying src,
// and only the cells src does not cover need the 0xFF fill. It takes an
// array from the free list, refilling an empty list with one allocation cut
// into batch arrays.
func programCells(cells *[]byte, free *[][]byte, size, batch, off int, src []byte) {
	if *cells != nil {
		programBits((*cells)[off:off+len(src)], src)
		return
	}
	if size == 0 {
		return
	}
	if len(*free) == 0 {
		for slab := make([]byte, batch*size); len(slab) > 0; slab = slab[size:] {
			*free = append(*free, slab[:size:size])
		}
	}
	n := len(*free) - 1
	a := (*free)[n]
	(*free)[n] = nil
	*free = (*free)[:n]
	if len(src) < size {
		FillErased(a)
	}
	copy(a[off:], src)
	*cells = a
}

// violatesOverwrite reports whether programming new over old would require
// any 0->1 transition: new has a 1 bit where old already has a 0 bit.
func violatesOverwrite(old, new []byte) bool {
	old = old[:len(new)]
	for len(new) >= 8 {
		if binary.LittleEndian.Uint64(new)&^binary.LittleEndian.Uint64(old) != 0 {
			return true
		}
		old, new = old[8:], new[8:]
	}
	for i := range new {
		if new[i]&^old[i] != 0 {
			return true
		}
	}
	return false
}

// programBits applies the physical programming rule: the stored value is
// the bitwise AND of the existing charge state and the new data.
func programBits(dst, src []byte) {
	dst = dst[:len(src)]
	for len(src) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)&binary.LittleEndian.Uint64(src))
		dst, src = dst[8:], src[8:]
	}
	for i := range src {
		dst[i] &= src[i]
	}
}

// maybeDisturbPaired injects a program-interference fault into the page
// paired with (b, p) with the configured probability. Interference only
// adds charge, i.e. flips a 1 bit to 0. Re-programming an LSB page moves
// charges in much smaller ISPP steps than programming the MSB page of the
// wordline, so its coupling on the neighbour is an order of magnitude
// weaker — this is what makes the paper's odd-MLC mode safe in practice.
func (c *Chip) maybeDisturbPaired(b, p int) {
	pp := PairedPage(p)
	if pp == p || pp >= c.cfg.Geometry.PagesPerBlock {
		return
	}
	paired := &c.blocks[b].pages[pp]
	if paired.state != PageProgrammed || paired.data == nil {
		return
	}
	prob := c.cfg.InterferenceProb
	if IsLSBPage(c.cfg.Cell, p) {
		prob /= 10
	}
	if c.rng.float64() >= prob {
		return
	}
	// Pick a random 1 bit and clear it.
	byteIdx := int(c.rng.next() % uint64(len(paired.data)))
	for tries := 0; tries < len(paired.data); tries++ {
		i := (byteIdx + tries) % len(paired.data)
		if paired.data[i] == 0 {
			continue
		}
		bit := uint(c.rng.next() % 8)
		for b := uint(0); b < 8; b++ {
			mask := byte(1) << ((bit + b) % 8)
			if paired.data[i]&mask != 0 {
				paired.data[i] &^= mask
				c.stats.InterferenceBits++
				return
			}
		}
	}
}

// Erase resets every page of the block to the erased state and increments
// the block's wear counter. Erasing past the endurance limit marks the
// block as worn out and fails.
func (c *Chip) Erase(b int) error {
	if err := c.cfg.Faults.alive(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b < 0 || b >= len(c.blocks) {
		return fmt.Errorf("%w: block %d", ErrOutOfRange, b)
	}
	blk := &c.blocks[b]
	// Admission before the fault step, as in program.
	if blk.wornOut {
		return fmt.Errorf("%w: block %d", ErrWornOut, b)
	}
	act := actProceed
	if c.cfg.Faults != nil {
		var err error
		act, err = c.cfg.Faults.step(OpErase)
		if err != nil {
			return err
		}
	}
	pages := len(blk.pages)
	if act == actTorn {
		// An interrupted erase resets only a prefix of the block's pages;
		// the rest keep their (stale) contents. The wear still happened.
		pages = c.cfg.Faults.tornLen(pages)
	}
	for i := 0; i < pages; i++ {
		pg := &blk.pages[i]
		if pg.data != nil {
			c.freeData = append(c.freeData, pg.data)
		}
		if pg.oob != nil {
			c.freeOOB = append(c.freeOOB, pg.oob)
		}
		*pg = page{}
	}
	blk.eraseCount++
	c.stats.BlockErases++
	if blk.eraseCount >= c.cfg.EnduranceCycles {
		blk.wornOut = true
	}
	if act != actProceed {
		return ErrPowerLost
	}
	return nil
}

// FillErased sets b to the erased state, all 0xFF, by doubling copies.
func FillErased(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = 0xFF
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// prng is a small deterministic xorshift* generator used for fault
// injection so experiments are reproducible. math/rand is avoided to keep
// the chip's behaviour stable across Go releases.
type prng struct{ state uint64 }

func newPRNG(seed uint64) *prng {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &prng{state: seed}
}

func (r *prng) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

func (r *prng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
