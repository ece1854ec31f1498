package ipl

import (
	"testing"

	"ipa/internal/storage"
)

func testManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(DefaultConfig(4096, 64))
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(8192, 128)
	if cfg.LogPagesPerBlock <= 0 || cfg.LogPagesPerBlock >= cfg.PagesPerBlock {
		t.Fatalf("bad log region size: %+v", cfg)
	}
	small := DefaultConfig(2048, 8)
	if small.LogPagesPerBlock < 1 {
		t.Fatalf("log region must have at least one page")
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{PageSize: 0, PagesPerBlock: 8}); err == nil {
		t.Fatalf("zero page size must be rejected")
	}
	if _, err := NewManager(Config{PageSize: 4096, PagesPerBlock: 8, LogPagesPerBlock: 8}); err == nil {
		t.Fatalf("log region covering the whole block must be rejected")
	}
}

func TestFirstEvictionWritesDataPage(t *testing.T) {
	m := testManager(t)
	m.Evict(1, 10, false)
	s := m.Stats()
	if s.DataPageWrites != 1 || s.LogSectorFlush != 0 {
		t.Fatalf("first eviction must write the data page: %+v", s)
	}
}

func TestSubsequentEvictionsWriteLogSectors(t *testing.T) {
	m := testManager(t)
	m.Evict(1, 10, false) // initial data page write
	for i := 0; i < 5; i++ {
		m.Evict(1, 10, true)
	}
	s := m.Stats()
	if s.DataPageWrites != 1 {
		t.Fatalf("data page must not be rewritten: %+v", s)
	}
	if s.LogSectorFlush != 5 {
		t.Fatalf("each eviction must flush one log sector, got %d", s.LogSectorFlush)
	}
	if s.LogBytesWritten == 0 {
		t.Fatalf("log byte accounting missing")
	}
}

func TestReadAmplification(t *testing.T) {
	m := testManager(t)
	m.Evict(1, 20, false)
	// Before any log sectors exist, a fetch reads only the data page.
	m.Fetch(1)
	s := m.Stats()
	if s.DataPageReads != 1 || s.LogPageReads != 0 {
		t.Fatalf("clean fetch stats wrong: %+v", s)
	}
	// Accumulate log sectors, then fetch again: the log pages must be read
	// on top of the data page.
	for i := 0; i < 12; i++ {
		m.Evict(1, 200, false)
	}
	m.Fetch(1)
	s = m.Stats()
	if s.LogPageReads == 0 {
		t.Fatalf("expected log-page read amplification: %+v", s)
	}
	if s.TotalFlashReads() != s.DataPageReads+s.LogPageReads {
		t.Fatalf("TotalFlashReads inconsistent")
	}
}

func TestMergeOnFullLogRegion(t *testing.T) {
	cfg := DefaultConfig(4096, 64)
	cfg.LogPagesPerBlock = 1 // a tiny log region fills quickly
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	// Two pages in the same block, updated repeatedly with large deltas.
	m.Evict(1, 100, false)
	m.Evict(2, 100, false)
	for i := 0; i < 50; i++ {
		m.Evict(1, 2000, true)
		m.Evict(2, 2000, true)
	}
	s := m.Stats()
	if s.Merges == 0 || s.Erases == 0 {
		t.Fatalf("log-region overflow must trigger merges: %+v", s)
	}
	if s.MergeMigrations < 2*s.Merges {
		t.Fatalf("each merge must rewrite the block's valid pages: %+v", s)
	}
	if s.TotalFlashWrites() <= s.DataPageWrites {
		t.Fatalf("TotalFlashWrites must include log flushes and migrations")
	}
}

func TestPagesSpreadAcrossBlocks(t *testing.T) {
	cfg := DefaultConfig(4096, 8) // 7 data slots + 1 log page per block
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	for pid := uint64(0); pid < 20; pid++ {
		m.Evict(pid, 10, false)
	}
	if len(m.blocks) < 3 {
		t.Fatalf("20 pages with 7 data slots per block must span >= 3 blocks, got %d", len(m.blocks))
	}
	// Updates of a page in one block must not affect another block's log.
	m.Evict(0, 50, true)
	m.Evict(19, 50, true)
	b0 := m.blocks[m.pageToBlok[0]]
	b19 := m.blocks[m.pageToBlok[19]]
	if b0 == b19 {
		t.Fatalf("pages 0 and 19 should live in different blocks")
	}
}

func TestReplayTrace(t *testing.T) {
	m := testManager(t)
	trace := []storage.TraceEvent{
		{Type: storage.TraceEvict, PID: 1, ChangedBytes: 0},
		{Type: storage.TraceFetch, PID: 1},
		{Type: storage.TraceEvict, PID: 1, ChangedBytes: 12, MetaChanged: true},
		{Type: storage.TraceFetch, PID: 1},
		{Type: storage.TraceEvict, PID: 2, ChangedBytes: 3},
	}
	m.Replay(trace)
	s := m.Stats()
	if s.PageFetches != 2 || s.Evictions != 3 {
		t.Fatalf("replay counts wrong: %+v", s)
	}
	if s.DataPageWrites != 2 { // first writes of pages 1 and 2
		t.Fatalf("DataPageWrites = %d", s.DataPageWrites)
	}
	if s.LogSectorFlush != 1 {
		t.Fatalf("LogSectorFlush = %d", s.LogSectorFlush)
	}
}

func TestUnknownChangeSizeUsesDefaultEntry(t *testing.T) {
	m := testManager(t)
	m.Evict(7, 0, false) // initial write
	m.Evict(7, 0, false) // unknown change size
	if m.Stats().LogBytesWritten == 0 {
		t.Fatalf("unknown change sizes must still produce a log entry")
	}
}
