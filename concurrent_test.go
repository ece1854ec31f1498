package ipa_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"ipa"
	"ipa/internal/wal"
)

// TestParallelInsertReadUpdate runs single-statement insert and update
// transactions, reads and scans from many goroutines on disjoint key ranges
// and verifies the final table contents (run with -race).
func TestParallelInsertReadUpdate(t *testing.T) {
	cfg := smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
	cfg.BufferPoolPages = 32
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const workers = 8
	const keysPerWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * keysPerWorker)
			// Insert this worker's keys.
			for k := int64(0); k < keysPerWorker; k++ {
				if err := insertRow(db, tbl, base+k, fillTuple(64, base+k)); err != nil {
					t.Errorf("worker %d insert: %v", w, err)
					return
				}
			}
			// Update every key, then read it back.
			for k := int64(0); k < keysPerWorker; k++ {
				key := base + k
				// The read-back runs inside the updating transaction (a
				// transaction sees its own writes). A fresh snapshot taken
				// right after Commit may still predate it while an earlier
				// commit timestamp of another worker is in flight — the
				// contiguous-watermark lag of docs/DESIGN_MVCC.md.
				var row []byte
				err := autoTx(db, func(tx *ipa.Tx) error {
					if err := tx.UpdateAt(tbl, key, 4, []byte{0xA0, byte(w)}); err != nil {
						return err
					}
					var gerr error
					row, gerr = tx.Get(tbl, key)
					return gerr
				})
				if err != nil {
					t.Errorf("worker %d update+get: %v", w, err)
					return
				}
				if row[4] != 0xA0 || row[5] != byte(w) {
					t.Errorf("worker %d read back wrong bytes: % x", w, row[4:6])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := tbl.Count(); got != workers*keysPerWorker {
		t.Fatalf("Count = %d, want %d", got, workers*keysPerWorker)
	}
	// Every tuple carries its worker's marker and its untouched remainder.
	for w := 0; w < workers; w++ {
		for k := int64(0); k < keysPerWorker; k++ {
			key := int64(w*keysPerWorker) + k
			row, err := tbl.Get(key)
			if err != nil {
				t.Fatalf("Get %d: %v", key, err)
			}
			want := fillTuple(64, key)
			want[4], want[5] = 0xA0, byte(w)
			if !bytes.Equal(row, want) {
				t.Fatalf("key %d corrupted", key)
			}
		}
	}
}

// TestConcurrentReadersShareAPage hammers reads of a handful of keys (all
// on one or two pages) from many goroutines while a writer updates them,
// exercising the shared/exclusive frame latches (run with -race).
func TestConcurrentReadersShareAPage(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", 64)
	const keys = 20
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, tbl, k, fillTuple(64, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				row, err := tbl.Get(int64(i) % keys)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if len(row) != 64 {
					t.Errorf("short row")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			if err := updateRow(db, tbl, int64(i)%keys, 8, []byte{byte(i)}); err != nil {
				t.Errorf("UpdateAt: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestConcurrentCommitDurability checks the group-commit guarantee under
// concurrency: when Commit returns, the transaction's commit record is
// durable (FlushedLSN has passed it), no matter which goroutine led the
// flush. Every commit is counted, once, on a sharded pool.
func TestConcurrentCommitDurability(t *testing.T) {
	cfg := smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
	cfg.BufferPoolPages = 64
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", 80)
	const keys = 640
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, tbl, k, fillTuple(80, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	const workers = 8
	const opsPerWorker = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * (keys / workers)
			for i := 0; i < opsPerWorker; i++ {
				key := base + int64(i)%(keys/workers)
				tx := db.Begin()
				if err := tx.UpdateAt(tbl, key, 4, []byte{byte(i)}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("worker %d commit: %v", w, err)
					return
				}
				// The commit must already be durable when Commit returns.
				if flushed := db.WAL().FlushedLSN(); flushed == 0 {
					t.Errorf("worker %d: nothing flushed after commit", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The load ran one single-row transaction per key.
	const wantCommits = keys + workers*opsPerWorker
	s := db.Stats()
	if s.CommittedTxns != wantCommits {
		t.Fatalf("CommittedTxns = %d, want %d", s.CommittedTxns, wantCommits)
	}
	// Every commit record in the log must be durable.
	flushed := db.WAL().FlushedLSN()
	commits := 0
	for _, r := range db.WAL().Records() {
		if r.Type == wal.RecCommit {
			commits++
			if r.LSN > flushed {
				t.Fatalf("commit LSN %d beyond FlushedLSN %d", r.LSN, flushed)
			}
		}
	}
	if commits != wantCommits {
		t.Fatalf("found %d commit records, want %d", commits, wantCommits)
	}
	if s.WALFlushes == 0 || s.WALFlushedCommits != uint64(commits) {
		t.Fatalf("group-commit accounting wrong: %+v", s)
	}
	// The pool holds the whole table, so no write-back forces the log and
	// every flush carries at least one commit.
	if s.WALFlushes > s.WALFlushedCommits {
		t.Fatalf("%d flushes for %d commits: commits/flush %.2f < 1", s.WALFlushes, s.WALFlushedCommits, s.CommitsPerFlush())
	}
	if s.BufferShards < 2 {
		t.Fatalf("a %d-page pool has %d shards, want a sharded pool", cfg.BufferPoolPages, s.BufferShards)
	}
}

// TestCrashDuringGroupCommitLeaderFlush kills the log device while a
// group-commit leader is flushing on behalf of concurrent committers: every
// transaction in the doomed batch must report the failure and be rolled
// back by recovery, while transactions from earlier batches stay durable.
func TestCrashDuringGroupCommitLeaderFlush(t *testing.T) {
	const (
		rowSize        = 64
		initialBalance = int64(1_000_000_007)
		workers        = 4
		keysPerWkr     = 4
		opsPerWkr      = 200
		crashAtFlsh    = 25
	)
	plan := ipa.NewFaultPlan(crashAtFlsh, ipa.CrashBefore)
	plan.SetKinds(ipa.OpLogFlush)
	cfg := ipa.Config{
		PageSize:        2048,
		Blocks:          16,
		PagesPerBlock:   16,
		BufferPoolPages: 32,
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
		Faults:          plan,
	}
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// A real wall-clock cost per log flush so concurrent commits pile up
	// behind the leader and ride shared batches.
	ipa.DelayLogFlushes(db, 200*time.Microsecond)
	table, err := db.CreateTable("balances", rowSize)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// Load all worker keys in one transaction (one log flush).
	tx := db.Begin()
	for k := 0; k < workers*keysPerWkr; k++ {
		row := make([]byte, rowSize)
		binary.LittleEndian.PutUint64(row[8:], uint64(initialBalance))
		if err := tx.Insert(table, int64(k), row); err != nil {
			t.Fatalf("load insert: %v", err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("load commit: %v", err)
	}

	// committed[k] is the last balance whose commit SUCCEEDED for key k.
	committed := make([]int64, workers*keysPerWkr)
	for i := range committed {
		committed[i] = initialBalance
	}
	var failedCommits int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWkr; i++ {
				key := int64(w*keysPerWkr + i%keysPerWkr)
				delta := int64(w*1000 + i + 1)
				tx := db.Begin()
				mu.Lock()
				cur := committed[key]
				mu.Unlock()
				row := make([]byte, 8)
				binary.LittleEndian.PutUint64(row, uint64(cur+delta))
				if err := tx.UpdateAt(table, key, 8, row); err != nil {
					if errors.Is(err, ipa.ErrPowerLost) || errors.Is(err, ipa.ErrClosed) {
						return
					}
					if errors.Is(err, ipa.ErrConflict) {
						_ = tx.Abort()
						continue
					}
					t.Errorf("worker %d: update: %v", w, err)
					return
				}
				if err := tx.Commit(); err != nil {
					mu.Lock()
					failedCommits++
					mu.Unlock()
					if errors.Is(err, ipa.ErrPowerLost) || errors.Is(err, ipa.ErrClosed) {
						return
					}
					t.Errorf("worker %d: commit: %v", w, err)
					return
				}
				mu.Lock()
				committed[key] = cur + delta
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if !plan.Tripped() {
		t.Fatalf("the log-flush fault never fired (%d flush points seen)", plan.Ops())
	}

	img := db.Crash()
	db2, err := ipa.Reopen(img)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	t2, ok := db2.Table("balances")
	if !ok {
		t.Fatalf("table missing after reopen")
	}
	for k := range committed {
		row, err := t2.Get(int64(k))
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if got := int64(binary.LittleEndian.Uint64(row[8:])); got != committed[k] {
			t.Errorf("key %d: balance %d after recovery, committed state says %d", k, got, committed[k])
		}
	}
	t.Logf("flush points=%d failed commits=%d", plan.Ops(), failedCommits)
}

// TestRecoveryAfterConcurrentCrash crashes a database mid-flight — some
// transactions committed from several goroutines, others still open — and
// verifies that recovery redoes every committed update and rolls back all
// losers, exactly as in the sequential recovery test.
func TestRecoveryAfterConcurrentCrash(t *testing.T) {
	cfg := smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", 64)
	const keys = 400
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, tbl, k, fillTuple(64, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * (keys / workers)
			for i := 0; i < 20; i++ {
				key := base + int64(i)
				tx := db.Begin()
				if err := tx.UpdateAt(tbl, key, 20, []byte{0xAA, byte(w)}); err != nil {
					t.Errorf("worker %d update: %v", w, err)
					_ = tx.Abort()
					return
				}
				if w%2 == 0 {
					// Even workers commit; odd workers leave their
					// transactions open — the "crash" strands them as
					// losers in the log.
					if err := tx.Commit(); err != nil {
						t.Errorf("worker %d commit: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Crash and recover: the open transactions die with the process.
	_, tbl = crashReopen(t, db, "t")
	for w := 0; w < workers; w++ {
		base := int64(w) * (keys / workers)
		for i := 0; i < 20; i++ {
			key := base + int64(i)
			row, err := tbl.Get(key)
			if err != nil {
				t.Fatalf("Get %d: %v", key, err)
			}
			if w%2 == 0 {
				if row[20] != 0xAA || row[21] != byte(w) {
					t.Fatalf("committed update of worker %d lost on key %d: % x", w, key, row[20:22])
				}
			} else {
				want := fillTuple(64, key)
				if row[20] != want[20] || row[21] != want[21] {
					t.Fatalf("loser update of worker %d survived on key %d: % x", w, key, row[20:22])
				}
			}
		}
	}
}

// TestGetForUpdateBlocksWriters verifies that a locked read conflicts
// with a concurrent writer, and that a plain Get does not take the lock.
func TestGetForUpdateBlocksWriters(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", 64)
	if err := insertRow(db, tbl, 7, fillTuple(64, 7)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	reader := db.Begin()
	row, err := reader.GetForUpdate(tbl, 7)
	if err != nil {
		t.Fatalf("GetForUpdate: %v", err)
	}
	if !bytes.Equal(row, fillTuple(64, 7)) {
		t.Fatalf("GetForUpdate returned wrong tuple")
	}
	// A writer must conflict while the read lock is held.
	writer := db.Begin()
	if err := writer.UpdateAt(tbl, 7, 0, []byte{1}); !errors.Is(err, ipa.ErrConflict) {
		t.Fatalf("expected conflict against locked read, got %v", err)
	}
	_ = writer.Abort()
	// A plain Get takes no lock and proceeds.
	observer := db.Begin()
	if _, err := observer.Get(tbl, 7); err != nil {
		t.Fatalf("plain Get must not block: %v", err)
	}
	_ = observer.Abort()
	if err := reader.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// After commit the record is writable again.
	writer2 := db.Begin()
	if err := writer2.UpdateAt(tbl, 7, 0, []byte{2}); err != nil {
		t.Fatalf("update after release: %v", err)
	}
	if err := writer2.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// TestStatsAndResetRaceFree calls Stats and ResetStats continuously while
// transactions commit (run with -race: the counters and the mark must be
// atomic), and reads Stats from a second goroutine across the resets: a
// gauge of unsigned differences read against a newer mark would wrap.
func TestStatsAndResetRaceFree(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", 64)
	const keys = 200
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, tbl, k, fillTuple(64, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Every record of this run is under 256 bytes: three per loaded row, two
	// per update transaction. A gauge of unsigned differences that reads
	// more than the whole run wrote has wrapped below zero.
	const updates = 150
	const maxWALBytes = (3*keys + 2*4*updates) * 256
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := db.Stats()
				if s.Throughput() < 0 {
					t.Errorf("negative throughput")
					return
				}
				db.ResetStats()
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s := db.Stats(); s.WALBytesSinceCheckpoint > maxWALBytes || s.WALBytes > maxWALBytes {
					t.Errorf("WALBytesSinceCheckpoint %d, WALBytes %d during a ResetStats; the run wrote at most %d",
						s.WALBytesSinceCheckpoint, s.WALBytes, maxWALBytes)
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			base := int64(w) * (keys / 4)
			for i := 0; i < updates; i++ {
				tx := db.Begin()
				key := base + int64(i)%(keys/4)
				if err := tx.UpdateAt(tbl, key, 8, []byte{byte(i)}); err != nil {
					if errors.Is(err, ipa.ErrConflict) {
						_ = tx.Abort()
						continue
					}
					t.Errorf("worker %d: %v", w, err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("worker %d commit: %v", w, err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestConflictRetryUnderConcurrency has all workers fight over the same
// tiny key set; conflicts must surface as ipa.ErrConflict and every
// retried transaction must eventually succeed.
func TestConflictRetryUnderConcurrency(t *testing.T) {
	db, err := ipa.Open(smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", 64)
	const keys = 4
	for k := int64(0); k < keys; k++ {
		if err := insertRow(db, tbl, k, fillTuple(64, k)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	db.ResetStats() // the load's commits are outside the measured window
	const workers = 8
	const opsPerWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := int64(i) % keys
				for {
					tx := db.Begin()
					err := tx.UpdateAt(tbl, key, 8, []byte{byte(w), byte(i)})
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						break
					}
					_ = tx.Abort()
					if !errors.Is(err, ipa.ErrConflict) {
						t.Errorf("worker %d: unexpected error: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s := db.Stats()
	if s.CommittedTxns != workers*opsPerWorker {
		t.Fatalf("CommittedTxns = %d, want %d", s.CommittedTxns, workers*opsPerWorker)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
}
