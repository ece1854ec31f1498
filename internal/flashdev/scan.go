package flashdev

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"ipa/internal/ecc"
	"ipa/internal/nand"
)

// PageScan classifies one physical page during a crash-recovery scan.
type PageScan struct {
	// Programmed reports that the page holds charge (it is not erased).
	Programmed bool
	// Tagged reports that a valid FTL mapping tag was found; LBA and Seq
	// are only meaningful when it is set.
	Tagged bool
	LBA    int
	Seq    uint64
	// BodyValid reports that the initially programmed region verified
	// against its ECC (single-bit errors corrected in buf). With data ECC
	// disabled it is true for every programmed page.
	BodyValid bool
	// Records is the number of delta-record OOB slots holding a verified
	// append (the valid prefix).
	Records int
	// Torn reports that some programmed content failed verification: a
	// corrupt mapping tag, a failed initial-region ECC or a delta slot
	// whose append was interrupted mid-program. Recovery treats untagged
	// or body-invalid pages as garbage and scrubs live pages with torn
	// delta slots by rewriting them out of place.
	Torn bool
	// Programs is the page's program count since the last block erase.
	Programs int
}

// ScanPage reads a physical page for crash recovery. Unlike ReadPage it
// never fails on corruption — it reports what survived the power cut. buf
// (PageSize bytes) receives the raw page image, with single-bit errors in
// the regions that verify corrected in place.
func (d *Device) ScanPage(block, page int, buf []byte) (PageScan, error) {
	chipIdx, chip, b, err := d.locate(block)
	if err != nil {
		return PageScan{}, err
	}
	g := d.cfg.Chip.Geometry
	if len(buf) != g.PageSize {
		return PageScan{}, fmt.Errorf("flashdev: ScanPage buffer %d bytes, want %d", len(buf), g.PageSize)
	}
	info, err := chip.PageStatus(b, page)
	if err != nil {
		return PageScan{}, err
	}
	scan := PageScan{Programs: info.Programs}
	if info.State != nand.PageProgrammed {
		nand.FillErased(buf)
		return scan, nil
	}
	scan.Programmed = true
	var stack [oobStackSize]byte
	oob := d.oobScratch(&stack)
	if err := chip.ReadPage(b, page, buf, oob); err != nil {
		return PageScan{}, err
	}
	atomic.AddUint64(&d.stats.FlashPageReads, 1)
	atomic.AddUint64(&d.stats.BytesFromDevice, uint64(len(buf)))
	d.advance(chipIdx, d.cfg.Latency.PageRead+d.cfg.Latency.transfer(len(buf)))

	if g.OOBSize < oobSlotsOff {
		// No room for a mapping tag on this geometry: nothing recoverable.
		scan.BodyValid = d.cfg.DisableECC
		return scan, nil
	}

	// Mapping tag (a correction lands in the scratch copy, from which the
	// fields are then read).
	tag := oob[oobTagOff : oobTagOff+TagSize]
	if !ecc.Blank(tag) {
		if _, err := ecc.Decode(tag[:tagBody], tag[tagBody:]); err != nil {
			scan.Torn = true
		} else {
			scan.Tagged = true
			scan.LBA = int(binary.LittleEndian.Uint32(tag[0:4]))
			scan.Seq = binary.LittleEndian.Uint64(tag[4:12])
		}
	}

	// Initially programmed region (leading cover plus trailing tail).
	if d.cfg.DisableECC {
		scan.BodyValid = true
	} else {
		coverLen := int(binary.LittleEndian.Uint16(oob[0:oobCoverLenSize]))
		tailLen := int(binary.LittleEndian.Uint16(oob[oobCoverLenSize:oobInitialOff]))
		code := oob[oobInitialOff : oobInitialOff+ecc.CodeSize]
		switch {
		case coverLen == blankLen || tailLen == blankLen || ecc.Blank(code):
			// The program never finished writing its header: torn.
			scan.Torn = true
		case coverLen+tailLen > len(buf):
			scan.Torn = true
		default:
			if res, err := ecc.DecodeSplit(buf[:coverLen], buf[len(buf)-tailLen:], code); err != nil {
				scan.Torn = true
			} else {
				scan.BodyValid = true
				d.countCorrected(res.Corrected)
			}
		}
	}

	// Delta-record slots: count the verified prefix; anything programmed
	// at or after the first invalid slot marks the page torn.
	if !d.cfg.DisableECC {
		geo := d.Geometry()
		for s := 0; s < geo.DeltaSlots; s++ {
			off := oobSlotsOff + s*DeltaSlotSize
			slot := oob[off : off+DeltaSlotSize]
			if ecc.Blank(slot) {
				continue
			}
			if s != scan.Records {
				// Programmed slot after an invalid/blank one.
				scan.Torn = true
				continue
			}
			dOff := int(binary.LittleEndian.Uint16(slot[0:2]))
			dLen := int(binary.LittleEndian.Uint16(slot[2:4]))
			if dOff+dLen > len(buf) {
				scan.Torn = true
				continue
			}
			res, err := ecc.Decode(buf[dOff:dOff+dLen], slot[deltaSlotHeader:])
			if err != nil {
				scan.Torn = true
				continue
			}
			d.countCorrected(res.Corrected)
			scan.Records++
		}
	}
	return scan, nil
}
