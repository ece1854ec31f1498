package ftl

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ipa/internal/flashdev"
	"ipa/internal/nand"
)

// RebuildReport summarises what a crash-recovery scan found on the device.
type RebuildReport struct {
	PagesScanned int // programmed physical pages inspected
	LivePages    int // pages installed as the newest copy of a logical page
	StalePages   int // valid copies that lost the sequence race
	GarbagePages int // programmed pages with no usable content (torn programs)
	// Scrub lists the logical pages whose winning physical copy carries a
	// torn in-place append: they are readable only through SalvageRead and
	// must be rewritten out of place before normal reads resume.
	Scrub []int
	// MaxLBA is the highest logical page address found mapped (-1 if none).
	MaxLBA int
	// MaxSeq is the highest write sequence number seen on the device.
	MaxSeq uint64
}

// rebuildPage is one candidate mapping discovered by the scan.
type rebuildPage struct {
	ppa  int32
	seq  uint64
	torn bool
	// appends is the page's used append budget: its verified delta records,
	// or its programs after the first on flash modes that append without
	// consuming OOB slots (the conventional-SSD merge path), whichever is
	// more.
	appends int
}

// Rebuild reconstructs an FTL from a surviving Flash image: it scans every
// physical page, validates the OOB mapping tags and ECC, keeps the
// highest-sequence valid copy of each logical page and rebuilds the block
// states, free lists, append budgets and the write sequence counter. It is
// the device half of the crash-recovery path: after a power cut the
// in-memory translation state is gone and the tags are all that is left.
//
// One goroutine walks every block in order. Each read is charged to its
// own chip's clock, so the scan's device time is the busiest chip's reads.
func Rebuild(dev *flashdev.Device, cfg Config) (*FTL, *RebuildReport, error) {
	f, err := newSkeleton(dev, cfg)
	if err != nil {
		return nil, nil, err
	}
	report := &RebuildReport{MaxLBA: -1}
	winners := make(map[int]rebuildPage)
	blockProgrammed := make([]bool, f.geo.Blocks)
	if err := f.scanBlocks(winners, blockProgrammed, report); err != nil {
		return nil, nil, err
	}

	// Install the winners.
	for lba, w := range winners {
		f.l2p[lba] = w.ppa
		f.p2l[w.ppa] = int32(lba)
		f.blocks[f.blockOf(w.ppa)].validCount++
		f.appends[w.ppa] = uint8(min(w.appends, 255))
		if lba > report.MaxLBA {
			report.MaxLBA = lba
		}
		if w.torn {
			report.Scrub = append(report.Scrub, lba)
		}
		report.LivePages++
	}
	f.seq.Store(report.MaxSeq)
	sort.Ints(report.Scrub) // deterministic scrub (and recovery fault-point) order

	// Block states and free lists: fully erased blocks are free, everything
	// that holds charge — including the partially filled block that was
	// active at the crash and blocks whose erase was interrupted — is used
	// and will be reclaimed by garbage collection.
	for c := 0; c < f.chips; c++ {
		p := f.parts[c]
		for b := (c+1)*f.blocksPerChip - 1; b >= c*f.blocksPerChip; b-- {
			if blockProgrammed[b] {
				f.blocks[b].state = blockUsed
				f.blocks[b].nextPage = f.geo.PagesPerBlock
			} else {
				f.blocks[b].state = blockFree
				f.blocks[b].nextPage = 0
				p.free = append(p.free, b)
			}
		}
	}
	return f, report, nil
}

// scanBlocks walks every physical block, validating mapping tags and
// collecting the candidate winners into the given map and the scan
// counters into report (MaxLBA/LivePages/Scrub are derived later, at
// winner installation).
func (f *FTL) scanBlocks(winners map[int]rebuildPage, blockProgrammed []bool, report *RebuildReport) error {
	buf := make([]byte, f.geo.PageSize)
	for b := range f.geo.Blocks {
		for pg := 0; pg < f.geo.PagesPerBlock; pg++ {
			scan, err := f.dev.ScanPage(b, pg, buf)
			if err != nil {
				return fmt.Errorf("ftl: rebuild scan block %d page %d: %w", b, pg, err)
			}
			if !scan.Programmed {
				continue
			}
			blockProgrammed[b] = true
			report.PagesScanned++
			if scan.Seq > report.MaxSeq {
				report.MaxSeq = scan.Seq
			}
			if !scan.Tagged || !scan.BodyValid {
				// A torn program (or a page from before tagging): nothing
				// recoverable here; the previous copy of the logical page,
				// wherever it lives, stays authoritative.
				report.GarbagePages++
				continue
			}
			if scan.LBA < 0 || scan.LBA >= len(f.l2p) || scan.LBA%f.chips != f.dev.ChipOf(b) {
				// A tag that points outside the exported range or off its
				// own chip cannot be real: logical pages never change chip.
				report.GarbagePages++
				continue
			}
			cand := rebuildPage{ppa: f.ppaOf(b, pg), seq: scan.Seq, torn: scan.Torn, appends: max(scan.Records, scan.Programs-1)}
			cur, ok := winners[scan.LBA]
			switch {
			case !ok:
				winners[scan.LBA] = cand
			case cand.seq > cur.seq:
				// Newer copy wins; the old one is stale.
				winners[scan.LBA] = cand
				report.StalePages++
			default:
				// Equal sequence numbers only arise from a crash between a
				// GC copy-back and its erase; the copies are identical, the
				// first one found stays.
				report.StalePages++
			}
		}
	}
	return nil
}

// SalvageRead reads the logical page through the tolerant recovery scan:
// unlike ReadPage it succeeds even when an interrupted append left a delta
// slot that fails its ECC. The returned image carries whatever bytes the
// power cut persisted; the delta-record commit markers let the layers above
// discard the torn tail.
func (f *FTL) SalvageRead(lba int, buf []byte) (flashdev.PageScan, error) {
	p, err := f.lock(lba)
	if err != nil {
		return flashdev.PageScan{}, err
	}
	defer p.mu.Unlock()
	ppa, err := f.mappedPPA(lba)
	if err != nil {
		return flashdev.PageScan{}, err
	}
	atomic.AddUint64(&f.stats.HostReads, 1)
	atomic.AddUint64(&f.stats.HostBytesRead, uint64(len(buf)))
	return f.dev.ScanPage(f.blockOf(ppa), f.pageOf(ppa), buf)
}

// CheckConsistency validates the FTL's translation invariants: l2p and p2l
// are inverse on every mapped page, pages stay on their chip, and per-block
// valid counts match the mapping. It is the "FTL mapping validates" check
// of the crash-torture harness.
func (f *FTL) CheckConsistency() error {
	for _, p := range f.parts {
		p.mu.Lock()
	}
	defer func() {
		for _, p := range f.parts {
			p.mu.Unlock()
		}
	}()
	valid := make([]int, len(f.blocks))
	for lba, ppa := range f.l2p {
		if ppa < 0 {
			continue
		}
		if int(ppa) >= len(f.p2l) {
			return fmt.Errorf("ftl: lba %d maps to out-of-range ppa %d", lba, ppa)
		}
		if f.p2l[ppa] != int32(lba) {
			return fmt.Errorf("ftl: lba %d -> ppa %d but p2l says %d", lba, ppa, f.p2l[ppa])
		}
		if f.ChipOf(lba) != f.dev.ChipOf(f.blockOf(ppa)) {
			return fmt.Errorf("ftl: lba %d mapped off its chip (ppa %d)", lba, ppa)
		}
		if !nand.PageUsable(f.dev.CellType(), f.cfg.FlashMode, f.pageOf(ppa)) {
			return fmt.Errorf("ftl: lba %d mapped to unusable page %d", lba, f.pageOf(ppa))
		}
		valid[f.blockOf(ppa)]++
	}
	for ppa, lba := range f.p2l {
		if lba < 0 {
			continue
		}
		if int(lba) >= len(f.l2p) || f.l2p[lba] != int32(ppa) {
			return fmt.Errorf("ftl: ppa %d claims lba %d but l2p disagrees", ppa, lba)
		}
	}
	for b := range f.blocks {
		if f.blocks[b].validCount != valid[b] {
			return fmt.Errorf("ftl: block %d validCount %d, mapping says %d", b, f.blocks[b].validCount, valid[b])
		}
	}
	return nil
}
