package ipa_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ipa"
)

// TestTableScanAndDelete covers scans, range scans and deletes through the
// public API.
func TestTableScanAndDelete(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 80)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const n = 300
	for k := int64(0); k < n; k++ {
		if err := insertRow(db, tbl, k, fillTuple(80, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if tbl.Count() != n {
		t.Fatalf("Count = %d", tbl.Count())
	}
	// Full scan in key order.
	var prev int64 = -1
	visited := 0
	if err := tbl.Scan(func(key int64, tuple []byte) bool {
		if key <= prev {
			t.Fatalf("scan out of order: %d after %d", key, prev)
		}
		if !bytes.Equal(tuple, fillTuple(80, key)) {
			t.Fatalf("scan returned wrong tuple for %d", key)
		}
		prev = key
		visited++
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if visited != n {
		t.Fatalf("scan visited %d of %d", visited, n)
	}
	// Range scan.
	visited = 0
	if err := tbl.ScanRange(100, 110, func(key int64, tuple []byte) bool {
		visited++
		return true
	}); err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	if visited != 10 {
		t.Fatalf("range scan visited %d", visited)
	}
	// Deletes.
	if err := deleteRow(db, tbl, 5); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := tbl.Get(5); !errors.Is(err, ipa.ErrKeyNotFound) {
		t.Fatalf("deleted key still readable: %v", err)
	}
	if err := deleteRow(db, tbl, 5); !errors.Is(err, ipa.ErrKeyNotFound) {
		t.Fatalf("double delete must fail: %v", err)
	}
	if _, err := tbl.Get(6); err != nil {
		t.Fatalf("neighbour of the deleted key unreadable: %v", err)
	}
	// Duplicate insert.
	if err := insertRow(db, tbl, 6, fillTuple(80, 6)); !errors.Is(err, ipa.ErrDuplicateKey) {
		t.Fatalf("duplicate insert must fail: %v", err)
	}
}

// TestLargeAbortAcrossASegmentSeal: a transaction of 300 inserts, with
// updates and deletes of committed rows among them, logs across a WAL
// segment seal, so its undo list points into two segments' record arrays
// and into arrays the tail left behind as it regrew. Abort rolls every
// record back: the table reads as before and passes VerifyIntegrity, and
// so does a load that then reuses the chains the aborted inserts dropped.
func TestLargeAbortAcrossASegmentSeal(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 120)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for k := int64(0); k < 100; k++ {
		if err := insertRow(db, tbl, k, fillTuple(120, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	contents := func() map[int64]string {
		rows := map[int64]string{}
		if err := tbl.Scan(func(key int64, tuple []byte) bool { rows[key] = string(tuple); return true }); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		return rows
	}
	before, segments := contents(), db.WAL().Segments()
	tx := db.Begin()
	for k := int64(100); k < 400; k++ {
		if err := tx.Insert(tbl, k, fillTuple(120, k)); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
		if k%3 == 0 { // keys 0..49, some twice
			if err := tx.UpdateAt(tbl, k%50, 8, []byte{0xEE, byte(k)}); err != nil {
				t.Fatalf("UpdateAt %d: %v", k%50, err)
			}
		}
		if k%30 == 1 { // keys 50..59
			if err := tx.Delete(tbl, 50+(k-100)/30); err != nil {
				t.Fatalf("Delete %d: %v", 50+(k-100)/30, err)
			}
		}
	}
	if db.WAL().Segments() <= segments {
		t.Fatalf("the transaction stayed in %d WAL segments: no seal to span", segments)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if after := contents(); !reflect.DeepEqual(after, before) || tbl.Count() != 100 {
		t.Fatalf("after the abort the table holds %d rows (count %d), want the %d it held before, unchanged", len(after), tbl.Count(), len(before))
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after the abort: %v", err)
	}
	for k := int64(100); k < 400; k++ {
		if err := insertRow(db, tbl, k, fillTuple(120, -k)); err != nil {
			t.Fatalf("reinsert %d: %v", k, err)
		}
	}
	if got, err := tbl.Get(399); err != nil || !bytes.Equal(got, fillTuple(120, -399)) {
		t.Fatalf("Get 399 after the reload: %v", err)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after the reload: %v", err)
	}
}

// TestTxConflictAndAbort covers record-lock conflicts between concurrent
// transactions and rollback through the public API.
func TestTxConflictAndAbort(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", 64)
	for k := int64(0); k < 10; k++ {
		if err := insertRow(db, tbl, k, fillTuple(64, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	db.ResetStats() // the load's commits are outside the measured window
	tx1 := db.Begin()
	if err := tx1.UpdateAt(tbl, 3, 0, []byte{1}); err != nil {
		t.Fatalf("tx1 update: %v", err)
	}
	tx2 := db.Begin()
	if err := tx2.UpdateAt(tbl, 3, 0, []byte{2}); !errors.Is(err, ipa.ErrConflict) {
		t.Fatalf("expected lock conflict, got %v", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatalf("tx2 abort: %v", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatalf("tx1 commit: %v", err)
	}
	// After the commit the row is updatable again.
	tx3 := db.Begin()
	if err := tx3.UpdateAt(tbl, 3, 0, []byte{3}); err != nil {
		t.Fatalf("tx3 update: %v", err)
	}
	if err := tx3.Abort(); err != nil {
		t.Fatalf("tx3 abort: %v", err)
	}
	row, _ := tbl.Get(3)
	if row[0] != 1 {
		t.Fatalf("aborted change visible or committed change lost: %d", row[0])
	}
	s := db.Stats()
	if s.CommittedTxns != 1 || s.AbortedTxns != 2 {
		t.Fatalf("txn counters wrong: %+v", s)
	}
}

// TestConcurrentTransactions runs parallel writers on disjoint key ranges to
// exercise the engine's locking and buffer pool under concurrency.
func TestConcurrentTransactions(t *testing.T) {
	cfg := smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
	cfg.BufferPoolPages = 64
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", 100)
	const keys = 800
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, tbl, k, fillTuple(100, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	db.ResetStats() // the load's commits are outside the measured window
	const workers = 4
	const opsPerWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * (keys / workers)
			for i := 0; i < opsPerWorker; i++ {
				key := base + int64(i)%(keys/workers)
				tx := db.Begin()
				if err := tx.UpdateAt(tbl, key, 10, []byte{byte(i), byte(w)}); err != nil {
					_ = tx.Abort()
					errs <- fmt.Errorf("worker %d update: %w", w, err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("worker %d commit: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	s := db.Stats()
	if s.CommittedTxns != workers*opsPerWorker {
		t.Fatalf("committed %d, want %d", s.CommittedTxns, workers*opsPerWorker)
	}
	// Every worker's last update must be visible.
	for w := 0; w < workers; w++ {
		base := int64(w) * (keys / workers)
		row, err := tbl.Get(base + int64(opsPerWorker-1)%(keys/workers))
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if row[11] != byte(w) {
			t.Fatalf("worker %d update lost", w)
		}
	}
}

// TestStatsDerivedMetrics sanity-checks the derived metrics of ipa.Stats.
func TestStatsDerivedMetrics(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", 100)
	// The table must be much larger than the buffer pool so that updates
	// are persisted by evictions rather than accumulating in memory.
	const keys = 3000
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, tbl, k, fillTuple(100, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	db.ResetStats()
	for i := 0; i < 6000; i++ {
		if err := updateRow(db, tbl, int64(i*13)%keys, 8, []byte{byte(i)}); err != nil {
			t.Fatalf("UpdateAt: %v", err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	s := db.Stats()
	if s.TotalHostWrites() != s.HostWrites+s.HostWriteDeltas {
		t.Fatalf("TotalHostWrites inconsistent")
	}
	if share := s.InPlaceShare(); share <= 0 || share > 1 {
		t.Fatalf("InPlaceShare out of range: %f", share)
	}
	if s.SmallEvictionShare() <= 0.5 {
		t.Fatalf("single-byte updates must yield mostly small evictions: %f", s.SmallEvictionShare())
	}
	if s.DBMSWriteAmplification() <= 1 {
		t.Fatalf("write amplification must exceed 1, got %f", s.DBMSWriteAmplification())
	}
	if len(s.EvictionSizeHistogram) != len(s.EvictionHistogramBounds)+1 {
		t.Fatalf("histogram shape wrong: %d buckets, %d bounds",
			len(s.EvictionSizeHistogram), len(s.EvictionHistogramBounds))
	}
	var histTotal uint64
	for _, c := range s.EvictionSizeHistogram {
		histTotal += c
	}
	if histTotal != s.DirtyEvictions {
		t.Fatalf("histogram does not cover all evictions: %d vs %d", histTotal, s.DirtyEvictions)
	}
	if s.Elapsed <= 0 || s.Throughput() < 0 {
		t.Fatalf("virtual time accounting broken: %v", s.Elapsed)
	}
	// The report prints the buffer pool's counters on the line of the set
	// that declares them, and the shard count, an echo of ipa.Stats
	// itself, on that set's line: nothing of the pool on the log's.
	report := s.String()
	wantBuffer := fmt.Sprintf("\nBufferStats: BufferHits=%d BufferMisses=%d ", s.BufferHits, s.BufferMisses)
	if s.BufferMisses == 0 || !strings.Contains(report, wantBuffer) {
		t.Fatalf("Stats.String has no %q line (misses %d):\n%s", wantBuffer, s.BufferMisses, report)
	}
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "BufferShards=") != strings.HasPrefix(line, "Stats:") {
			t.Fatalf("Stats.String prints the buffer shard count on the wrong line: %q", line)
		}
	}
}

// TestCreateTableValidation covers configuration errors of table creation.
func TestCreateTableValidation(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if _, err := db.CreateTable("t", 0); err == nil {
		t.Fatalf("zero tuple size must be rejected")
	}
	if _, err := db.CreateTable("t", 1<<20); err == nil {
		t.Fatalf("oversized tuples must be rejected")
	}
	if _, err := db.CreateTable("ok", 64); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := db.CreateTable("ok", 64); err == nil {
		t.Fatalf("duplicate table must be rejected")
	}
	// A per-table scheme needing a larger delta area than the device format
	// must be rejected; opting out is always allowed.
	if _, err := db.CreateTableWithScheme("big", 64, ipa.Scheme{N: 8, M: 16}); err == nil {
		t.Fatalf("oversized per-table scheme must be rejected")
	}
	if _, err := db.CreateTableWithScheme("optout", 64, ipa.Scheme{}); err != nil {
		t.Fatalf("opt-out table: %v", err)
	}
	if _, ok := db.Table("nosuch"); ok {
		t.Fatalf("Table must report missing tables")
	}
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := db.CreateTable(name, 64); err != nil {
			t.Fatalf("CreateTable %s: %v", name, err)
		}
	}
	// Sorted, hence the same on every call (not map order).
	want := []string{"alpha", "mid", "ok", "optout", "zeta"}
	for i := 0; i < 20; i++ {
		if names := db.Tables(); !slices.Equal(names, want) {
			t.Fatalf("Tables() = %v, want %v", names, want)
		}
	}
	geo := db.Geometry()
	if geo.PageSize != 4096 || geo.LogicalPages <= 0 {
		t.Fatalf("Geometry wrong: %+v", geo)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := db.CreateTable("after-close", 64); !errors.Is(err, ipa.ErrClosed) {
		t.Fatalf("operations after Close must fail: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double Close must be a no-op: %v", err)
	}
}

// TestSelectiveRegionsKeepTraditionalTablesOutOfPlace verifies the NoFTL
// region behaviour end-to-end: a table that opts out of IPA never produces
// in-place appends, while an IPA table on the same database does.
func TestSelectiveRegionsKeepTraditionalTablesOutOfPlace(t *testing.T) {
	cfg := smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	hot, _ := db.CreateTable("hot", 100)
	cold, err := db.CreateTableWithScheme("cold", 100, ipa.Scheme{})
	if err != nil {
		t.Fatalf("CreateTableWithScheme: %v", err)
	}
	const keys = 1200
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, hot, k, fillTuple(100, k)); err != nil {
			t.Fatalf("Insert hot: %v", err)
		}
		if err := insertRow(db, cold, k, fillTuple(100, k)); err != nil {
			t.Fatalf("Insert cold: %v", err)
		}
	}
	db.ResetStats()
	// Stride the updates so consecutive updates land on different pages and
	// every buffer residency accumulates only a byte or two of changes.
	for i := 0; i < 4000; i++ {
		key := int64(i*37) % keys
		if err := updateRow(db, hot, key, 8, []byte{byte(i)}); err != nil {
			t.Fatalf("UpdateAt hot: %v", err)
		}
		if err := updateRow(db, cold, key, 8, []byte{byte(i)}); err != nil {
			t.Fatalf("UpdateAt cold: %v", err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	s := db.Stats()
	if s.InPlaceAppends == 0 {
		t.Fatalf("the IPA table must produce appends")
	}
	// The cold table contributes only full-page writes; with both tables
	// updated equally, out-of-place writes must therefore clearly exceed
	// what the hot table alone would produce (which is about a third of
	// its evictions under the 2×4 scheme).
	if s.OutOfPlaceWrites <= s.InPlaceAppends/2 {
		t.Fatalf("expected substantial out-of-place traffic from the opt-out table: %+v", s)
	}
}
