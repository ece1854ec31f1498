// Package ipl implements the In-Page Logging (IPL) baseline of Lee & Moon
// (SIGMOD'07), the closest competitor of In-Place Appends.
//
// IPL divides every Flash erase block into a data-page region and a small
// log region. Updates to buffered database pages are captured as
// physiological log entries in a per-block in-memory log buffer; when a
// dirty page is evicted (or the buffer fills) the log entries are flushed
// into log sectors of the block holding the page. The data page itself is
// not rewritten. Reading a page therefore requires reading the data page
// plus every log sector of the block that may hold entries for it (read
// amplification). When a block's log region is full, the block is merged:
// all valid data pages are combined with their log entries and rewritten
// into a fresh erase block, and the old block is erased.
//
// Following the paper's methodology (footnote 1), the comparison is
// trace-driven: the storage manager records a fetch/eviction trace of a
// benchmark run and this package replays it, producing write, read and
// erase counts comparable with the IPA and traditional numbers.
package ipl

import (
	"fmt"

	"ipa/internal/storage"
)

// The log format of Lee & Moon's IPL configuration.
const (
	// sectorSize is the log sector size (the flush granularity).
	sectorSize = 512
	// entryOverhead is the per-log-entry header size (page id, offset,
	// length) in bytes.
	entryOverhead = 12
	// inMemoryBufferBytes is the per-block in-memory log buffer size; when
	// an eviction fills it, a sector flush is forced.
	inMemoryBufferBytes = 512
)

// Config describes the IPL layout, following the configuration of the
// original IPL paper scaled to the simulated device geometry.
type Config struct {
	// PageSize is the Flash/database page size in bytes.
	PageSize int
	// PagesPerBlock is the number of Flash pages per erase block.
	PagesPerBlock int
	// LogPagesPerBlock is the number of Flash pages per block reserved for
	// the log region.
	LogPagesPerBlock int
}

// DefaultConfig mirrors the IPL configuration of Lee & Moon (512-byte log
// sectors, 8 KiB log region per block) adapted to the given geometry.
func DefaultConfig(pageSize, pagesPerBlock int) Config {
	logPages := pagesPerBlock / 16
	if logPages < 1 {
		logPages = 1
	}
	return Config{PageSize: pageSize, PagesPerBlock: pagesPerBlock, LogPagesPerBlock: logPages}
}

// Stats are the counters produced by a trace replay.
type Stats struct {
	// Host-visible operations.
	PageFetches uint64 // page fetches in the trace
	Evictions   uint64 // dirty evictions in the trace

	// Flash reads.
	DataPageReads uint64 // reads of data pages
	LogPageReads  uint64 // additional reads of log pages (read amplification)

	// Flash writes.
	DataPageWrites uint64 // initial data page writes and merge rewrites
	LogSectorFlush uint64 // log sectors flushed
	LogPageWrites  uint64 // physical page programs carrying log sectors

	// Merges.
	Merges          uint64 // blocks merged because their log region filled
	MergeMigrations uint64 // valid data pages rewritten during merges
	Erases          uint64 // block erases caused by merges

	LogBytesWritten uint64
}

// TotalFlashReads returns data + log page reads.
func (s Stats) TotalFlashReads() uint64 { return s.DataPageReads + s.LogPageReads }

// TotalFlashWrites returns all physical program operations: data page
// writes, log sector flushes (each flush is a partial program of a log
// page) and the page rewrites performed by merges.
func (s Stats) TotalFlashWrites() uint64 {
	return s.DataPageWrites + s.LogSectorFlush + s.MergeMigrations
}

// blockState tracks one IPL erase block during replay.
type blockState struct {
	pages          map[uint64]bool // logical pages resident in the block (written at least once)
	logBytesUsed   int             // bytes of the on-Flash log region in use
	logSectorsUsed int
	logPagesUsed   int
	memBuffer      int            // bytes buffered in memory for this block
	entriesPerPage map[uint64]int // log entries per logical page
}

// Manager replays a fetch/eviction trace under In-Page Logging.
type Manager struct {
	cfg        Config
	dataPages  int // data page slots per block
	logBytes   int // log region capacity per block
	blocks     map[int]*blockState
	pageToBlok map[uint64]int
	nextBlock  int
	nextSlot   int
	stats      Stats
}

// NewManager creates a replay manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.PageSize <= 0 || cfg.PagesPerBlock <= 1 {
		return nil, fmt.Errorf("ipl: invalid geometry %d/%d", cfg.PageSize, cfg.PagesPerBlock)
	}
	if cfg.LogPagesPerBlock <= 0 || cfg.LogPagesPerBlock >= cfg.PagesPerBlock {
		return nil, fmt.Errorf("ipl: invalid log region of %d pages", cfg.LogPagesPerBlock)
	}
	return &Manager{
		cfg:        cfg,
		dataPages:  cfg.PagesPerBlock - cfg.LogPagesPerBlock,
		logBytes:   cfg.LogPagesPerBlock * cfg.PageSize,
		blocks:     make(map[int]*blockState),
		pageToBlok: make(map[uint64]int),
	}, nil
}

// Config returns the replay configuration.
func (m *Manager) Config() Config { return m.cfg }

// Stats returns the counters accumulated so far.
func (m *Manager) Stats() Stats { return m.stats }

// Replay processes a complete trace.
func (m *Manager) Replay(trace []storage.TraceEvent) {
	for _, ev := range trace {
		switch ev.Type {
		case storage.TraceFetch:
			m.Fetch(ev.PID)
		case storage.TraceEvict:
			m.Evict(ev.PID, ev.ChangedBytes, ev.MetaChanged)
		}
	}
}

// blockFor returns the block state holding pid, assigning the page to a
// block on first use (pages are co-located in allocation order, as IPL
// places logically contiguous pages in the same block).
func (m *Manager) blockFor(pid uint64) *blockState {
	if b, ok := m.pageToBlok[pid]; ok {
		return m.blocks[b]
	}
	if m.nextSlot >= m.dataPages {
		m.nextBlock++
		m.nextSlot = 0
	}
	b := m.nextBlock
	m.nextSlot++
	blk, ok := m.blocks[b]
	if !ok {
		blk = newBlockState()
		m.blocks[b] = blk
	}
	m.pageToBlok[pid] = b
	blk.pages[pid] = false
	return blk
}

func newBlockState() *blockState {
	return &blockState{
		pages:          make(map[uint64]bool),
		entriesPerPage: make(map[uint64]int),
	}
}

// Fetch accounts a page read: the data page plus every log page of its
// block that currently holds flushed entries.
func (m *Manager) Fetch(pid uint64) {
	blk := m.blockFor(pid)
	m.stats.PageFetches++
	m.stats.DataPageReads++
	m.stats.LogPageReads += uint64(blk.logPagesUsed)
}

// Evict accounts a dirty page eviction: the changed bytes become log
// entries in the block's in-memory buffer, which is flushed into log
// sectors; a full log region triggers a merge. The very first eviction of
// a page writes the data page itself (the page did not exist on Flash yet).
func (m *Manager) Evict(pid uint64, changedBytes int, metaChanged bool) {
	blk := m.blockFor(pid)
	m.stats.Evictions++

	if written := blk.pages[pid]; !written {
		// Initial write of the data page into its slot.
		blk.pages[pid] = true
		m.stats.DataPageWrites++
		return
	}
	entry := changedBytes + entryOverhead
	if metaChanged {
		entry += entryOverhead
	}
	if changedBytes <= 0 && !metaChanged {
		// An eviction that changed no body byte and no metadata (a page
		// dirtied and reverted); assume one small entry.
		entry = entryOverhead + 16
	}
	if entry > m.cfg.PageSize {
		entry = m.cfg.PageSize
	}
	blk.memBuffer += entry
	blk.entriesPerPage[pid]++
	m.stats.LogBytesWritten += uint64(entry)

	// Flush full in-memory buffers to log sectors on Flash.
	for blk.memBuffer >= inMemoryBufferBytes {
		blk.memBuffer -= inMemoryBufferBytes
		m.flushSector(blk)
	}
	// Eviction of the page forces its buffered entries out as well (the
	// buffer pool frame disappears).
	if blk.memBuffer > 0 {
		blk.memBuffer = 0
		m.flushSector(blk)
	}
}

// flushSector writes one log sector to the block's log region, merging the
// block if the region is full.
func (m *Manager) flushSector(blk *blockState) {
	if blk.logBytesUsed+sectorSize > m.logBytes {
		m.merge(blk)
	}
	prevPages := blk.logPagesUsed
	blk.logBytesUsed += sectorSize
	blk.logSectorsUsed++
	blk.logPagesUsed = (blk.logBytesUsed + m.cfg.PageSize - 1) / m.cfg.PageSize
	m.stats.LogSectorFlush++
	if blk.logPagesUsed > prevPages {
		m.stats.LogPageWrites++
	}
}

// merge rewrites all valid data pages of the block (applying their log
// entries) into a fresh block and erases the old one.
func (m *Manager) merge(blk *blockState) {
	m.stats.Merges++
	m.stats.Erases++
	for pid, written := range blk.pages {
		if !written {
			continue
		}
		// Read the data page and its log entries, write the merged page.
		m.stats.DataPageReads++
		m.stats.MergeMigrations++
		_ = pid
	}
	m.stats.LogPageReads += uint64(blk.logPagesUsed)
	blk.logBytesUsed = 0
	blk.logSectorsUsed = 0
	blk.logPagesUsed = 0
	blk.memBuffer = 0
	for pid := range blk.entriesPerPage {
		delete(blk.entriesPerPage, pid)
	}
}
