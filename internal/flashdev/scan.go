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
	// append (the valid prefix); 0 when the body does not verify.
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

// ScanPage reads a physical page for crash recovery: the mapping-tag check
// plus the decoder ReadPage uses. Unlike ReadPage it never fails on
// corruption — it reports what survived the power cut. buf (PageSize bytes)
// receives the raw page image, with single-bit errors in the regions that
// verify corrected in place.
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

	// Mapping tag (a correction lands in the scratch copy, from which the
	// fields are then read).
	tag := oob[oobTagOff : oobTagOff+TagSize]
	if !ecc.Blank(tag) {
		if _, err := ecc.DecodeSplit(tag[:tagBody], nil, tag[tagBody:]); err != nil {
			scan.Torn = true
		} else {
			scan.Tagged = true
			scan.LBA = int(binary.LittleEndian.Uint32(tag[0:4]))
			scan.Seq = binary.LittleEndian.Uint64(tag[4:12])
		}
	}
	if d.cfg.DisableECC {
		scan.BodyValid = true
		return scan, nil
	}
	// The initial region and the valid prefix of delta records; anything
	// that fails, and anything programmed behind it, marks the page torn.
	scan.BodyValid, scan.Records, err = d.decode(buf, oob)
	if err != nil {
		scan.Torn = true
	}
	return scan, nil
}
