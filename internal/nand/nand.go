// Package nand implements a behavioural simulator of NAND Flash memory.
//
// The simulator models the properties of NAND Flash that the In-Place
// Appends (IPA) approach depends on:
//
//   - The erased state of every cell is logical 1 (bytes read 0xFF).
//   - Programming a page can only move bits from 1 to 0 (charge can only be
//     added via ISPP); moving a bit from 0 back to 1 requires erasing the
//     whole block.
//   - Pages can be partially programmed several times between erases, up to
//     a configurable NOP (number of partial programs) budget.
//   - On MLC Flash every wordline carries an LSB page and an MSB page.
//     Re-programming a page can disturb its paired page (program
//     interference); the simulator can inject such faults.
//   - Blocks wear out after a configurable number of program/erase cycles.
//
// The chip exposes raw page read, full and partial page program, and block
// erase operations together with an out-of-band (OOB) area per page. Timing
// is not simulated here; the flashdev package attaches a virtual clock on
// top of the chip model.
package nand

import (
	"errors"
	"fmt"
)

// CellType identifies the physical cell technology of a chip.
type CellType int

const (
	// SLC stores one bit per cell. Large voltage margins make it tolerant
	// to program interference, so in-place appends are safe on every page.
	SLC CellType = iota
	// MLC stores two bits per cell. Each wordline holds an LSB and an MSB
	// page; re-programming is only safe on LSB pages (pSLC / odd-MLC modes).
	MLC
)

// String returns the conventional name of the cell technology.
func (c CellType) String() string {
	switch c {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// Mode selects how an MLC chip is operated by the layers above the chip.
// It mirrors the configuration modes proposed in the paper for applying IPA
// on MLC Flash.
type Mode int

const (
	// ModeSLC operates an SLC chip (or treats the chip as SLC). In-place
	// appends are allowed on every page.
	ModeSLC Mode = iota
	// ModeMLCFull uses the whole MLC capacity and allows appends on every
	// page. Appends on MSB pages are subject to program interference; this
	// mode exists for ablation experiments only.
	ModeMLCFull
	// ModePSLC (pseudo-SLC) uses only the LSB pages of an MLC chip. The
	// capacity is halved but the chip becomes as tolerant to program
	// interference as SLC.
	ModePSLC
	// ModeOddMLC uses the whole MLC capacity but allows in-place appends
	// only on LSB (odd-numbered) pages; MSB pages are always written
	// out-of-place by the layers above.
	ModeOddMLC
)

// String returns the name used in the paper for the mode.
func (m Mode) String() string {
	switch m {
	case ModeSLC:
		return "SLC"
	case ModeMLCFull:
		return "MLC-full"
	case ModePSLC:
		return "pSLC"
	case ModeOddMLC:
		return "odd-MLC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Geometry describes the physical organisation of a chip.
type Geometry struct {
	// Blocks is the number of erase units on the chip.
	Blocks int
	// PagesPerBlock is the number of Flash pages in each erase unit.
	PagesPerBlock int
	// PageSize is the number of data bytes per Flash page.
	PageSize int
	// OOBSize is the number of out-of-band (spare) bytes per Flash page,
	// used for ECC and per-delta-record metadata.
	OOBSize int
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.Blocks <= 0:
		return errors.New("nand: geometry requires at least one block")
	case g.PagesPerBlock <= 0:
		return errors.New("nand: geometry requires at least one page per block")
	case g.PagesPerBlock%2 != 0:
		return errors.New("nand: pages per block must be even (LSB/MSB pairing)")
	case g.PageSize <= 0:
		return errors.New("nand: page size must be positive")
	case g.OOBSize < 0:
		return errors.New("nand: OOB size must not be negative")
	}
	return nil
}

// TotalPages returns the number of Flash pages on the chip.
func (g Geometry) TotalPages() int { return g.Blocks * g.PagesPerBlock }

// Config configures a simulated chip.
type Config struct {
	Geometry Geometry
	// Cell selects the cell technology.
	Cell CellType
	// MaxProgramsPerPage is the NOP budget: the maximum number of program
	// operations (full or partial) a page accepts between erases. Zero
	// selects a technology-dependent default.
	MaxProgramsPerPage int
	// EnduranceCycles is the number of program/erase cycles a block
	// survives before it is marked worn out. Zero selects a default.
	EnduranceCycles int
	// InterferenceProb is the probability that re-programming an MLC page
	// flips one bit in its paired page (parasitic capacitance coupling).
	// It only applies when the paired page is already programmed and the
	// chip is MLC.
	InterferenceProb float64
	// Seed drives the deterministic pseudo-random fault injection.
	Seed int64
	// StrictOverwrite controls what happens when a program operation
	// attempts a forbidden 0->1 transition. If true the operation fails
	// with ErrOverwriteViolation; if false the offending bits silently
	// remain 0 (which is what the physical device would produce).
	StrictOverwrite bool
	// Faults, if non-nil, is the deterministic power-cut schedule consulted
	// by every program and erase the chip admits (a command refused as worn
	// out, over its NOP budget or violating StrictOverwrite never starts
	// and is not a fault point). All chips of a device share one plan so
	// fault points are numbered across the whole device.
	Faults *FaultPlan
}

// withDefaults fills zero fields with technology-dependent defaults.
func (c Config) withDefaults() Config {
	if c.MaxProgramsPerPage == 0 {
		// SLC NAND traditionally allows 4 partial programs per page;
		// IPA re-programs the same page once per appended delta record,
		// so we grant a generous budget that the FTL can restrict.
		c.MaxProgramsPerPage = 8
	}
	if c.EnduranceCycles == 0 {
		if c.Cell == SLC {
			c.EnduranceCycles = 100000
		} else {
			c.EnduranceCycles = 5000
		}
	}
	return c
}

// IsLSBPage reports whether the page index within a block addresses an LSB
// page. Following the paper, odd-numbered pages are LSB pages and
// even-numbered pages are MSB pages on MLC Flash. On SLC chips every page
// is reported as LSB.
func IsLSBPage(cell CellType, pageInBlock int) bool {
	if cell == SLC {
		return true
	}
	return pageInBlock%2 == 1
}

// PairedPage returns the index (within the block) of the page sharing the
// wordline with pageInBlock on MLC Flash.
func PairedPage(pageInBlock int) int { return pageInBlock ^ 1 }

// AppendSafe reports whether in-place appends to the given page are safe
// from program interference under the given operation mode.
func AppendSafe(cell CellType, mode Mode, pageInBlock int) bool {
	if cell == SLC {
		return true
	}
	switch mode {
	case ModeSLC:
		return true
	case ModeMLCFull:
		return true // allowed, but interference may corrupt the paired page
	case ModePSLC, ModeOddMLC:
		return IsLSBPage(cell, pageInBlock)
	default:
		return false
	}
}

// PageUsable reports whether a page may hold data at all under the given
// mode. In pSLC mode only LSB pages are usable (the capacity is halved).
func PageUsable(cell CellType, mode Mode, pageInBlock int) bool {
	if cell == SLC || mode != ModePSLC {
		return true
	}
	return IsLSBPage(cell, pageInBlock)
}
