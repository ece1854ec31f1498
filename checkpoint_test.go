package ipa_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"ipa"
)

func checkpointConfig() ipa.Config {
	return ipa.Config{
		PageSize:        2048,
		Blocks:          48,
		PagesPerBlock:   16,
		BufferPoolPages: 16,
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
	}
}

func ckptRow(key int64, gen byte) []byte {
	b := make([]byte, 64)
	b[0] = gen
	binary.LittleEndian.PutUint64(b[8:], uint64(key*7919))
	return b
}

func ckptInsert(t *testing.T, db *ipa.DB, tbl *ipa.Table, from, to int64) {
	t.Helper()
	for k := from; k < to; k++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, k, ckptRow(k, 1)); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit %d: %v", k, err)
		}
	}
}

// TestRecoveryStartsAtCheckpoint pins the tentpole property: after a fuzzy
// checkpoint, restart cost is O(log since the checkpoint), not O(whole
// history). The same workload is run twice — with and without a mid-run
// checkpoint — and the checkpointed run must replay only the small
// post-checkpoint tail.
func TestRecoveryStartsAtCheckpoint(t *testing.T) {
	run := func(checkpoint bool) (ipa.RecoveryStats, *ipa.DB) {
		db, err := ipa.Open(checkpointConfig())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		tbl, err := db.CreateTable("t", 64)
		if err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		ckptInsert(t, db, tbl, 0, 150)
		if checkpoint {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
		ckptInsert(t, db, tbl, 150, 160)
		db2, err := ipa.Reopen(db.Crash())
		if err != nil {
			t.Fatalf("Reopen: %v", err)
		}
		return db2.RecoveryStats(), db2
	}

	base, dbBase := run(false)
	defer dbBase.Close()
	ckpt, dbCkpt := run(true)
	defer dbCkpt.Close()

	if base.CheckpointLSN != 0 {
		t.Fatalf("baseline recovered from checkpoint LSN %d, want 0", base.CheckpointLSN)
	}
	if ckpt.CheckpointLSN == 0 {
		t.Fatalf("checkpointed run did not recover from a checkpoint")
	}
	if ckpt.RecordsRedone == 0 {
		t.Fatalf("checkpointed run replayed nothing; the post-checkpoint tail is non-empty")
	}
	// 150 of 160 transactions lie below the checkpoint: the truncated log
	// must make recovery replay a small fraction of the baseline.
	if ckpt.RecordsRedone*4 > base.RecordsRedone {
		t.Fatalf("recovery did not start at the checkpoint: redid %d records, baseline %d",
			ckpt.RecordsRedone, base.RecordsRedone)
	}
	// Both recover the same data regardless of where redo started.
	for _, db := range []*ipa.DB{dbBase, dbCkpt} {
		if err := db.VerifyIntegrity(); err != nil {
			t.Fatalf("VerifyIntegrity: %v", err)
		}
		tbl, ok := db.Table("t")
		if !ok {
			t.Fatalf("table missing after reopen")
		}
		for k := int64(0); k < 160; k++ {
			got, err := tbl.Get(k)
			if err != nil {
				t.Fatalf("Get %d: %v", k, err)
			}
			if !bytes.Equal(got, ckptRow(k, 1)) {
				t.Fatalf("key %d corrupted after recovery", k)
			}
		}
	}
	// The durable catalog carries the checkpoint the restart started from.
	state, ok, err := dbCkpt.CheckpointState()
	if err != nil || !ok {
		t.Fatalf("CheckpointState: ok=%v err=%v", ok, err)
	}
	if state.LSN != ckpt.CheckpointLSN {
		t.Fatalf("catalog LSN %d, recovery used %d", state.LSN, ckpt.CheckpointLSN)
	}
}

// TestCheckpointConcurrentWithWriters takes fuzzy checkpoints while writer
// goroutines commit (run under -race in CI), then crashes and verifies the
// recovered state. The background byte-triggered checkpointer runs too.
func TestCheckpointConcurrentWithWriters(t *testing.T) {
	cfg := checkpointConfig()
	cfg.Blocks = 96
	cfg.BufferPoolPages = 32
	cfg.CheckpointEveryBytes = 16 << 10
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}

	const writers, perWriter = 4, 80
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := int64(w*perWriter + i)
				tx := db.Begin()
				if err := tx.Insert(tbl, k, ckptRow(k, 1)); err != nil {
					errs[w] = err
					return
				}
				if err := tx.Commit(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	ckpts := 0
	for {
		select {
		case <-done:
		default:
			if _, err := db.Checkpoint(); err != nil {
				t.Errorf("Checkpoint under load: %v", err)
			}
			ckpts++
			continue
		}
		break
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if ckpts == 0 {
		t.Fatalf("no checkpoint ran concurrently with the writers")
	}

	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	tbl2, ok := db2.Table("t")
	if !ok {
		t.Fatalf("table missing after reopen")
	}
	for k := int64(0); k < writers*perWriter; k++ {
		got, err := tbl2.Get(k)
		if err != nil {
			t.Fatalf("Get %d after recovery: %v", k, err)
		}
		if !bytes.Equal(got, ckptRow(k, 1)) {
			t.Fatalf("key %d corrupted after recovery", k)
		}
	}
}

// TestDoubleCrashDuringCheckpoint cuts the power in the middle of a fuzzy
// checkpoint, recovers, cuts the power inside the next checkpoint again,
// and recovers again: a torn checkpoint (catalog program included) must
// never cost committed data, it only leaves the previous checkpoint in
// force.
func TestDoubleCrashDuringCheckpoint(t *testing.T) {
	plan := ipa.NewFaultPlan(0, ipa.CrashTorn) // passive until armed
	cfg := checkpointConfig()
	cfg.Faults = plan
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	ckptInsert(t, db, tbl, 0, 60)

	// First power cut: mid-checkpoint, during the dirty-page flushes or
	// the catalog program (Arm restarts the op counter).
	plan.Arm(2, ipa.CrashTorn)
	if _, err := db.Checkpoint(); !errors.Is(err, ipa.ErrPowerLost) {
		t.Fatalf("checkpoint during power cut: got %v, want ErrPowerLost", err)
	}
	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("first Reopen: %v", err)
	}
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after first crash: %v", err)
	}
	tbl2, ok := db2.Table("t")
	if !ok {
		t.Fatalf("table missing after first reopen")
	}
	ckptInsert(t, db2, tbl2, 60, 90)

	// Second power cut: inside the next checkpoint of the recovered DB.
	plan.Arm(3, ipa.CrashTorn)
	if _, err := db2.Checkpoint(); !errors.Is(err, ipa.ErrPowerLost) {
		t.Fatalf("second checkpoint during power cut: got %v, want ErrPowerLost", err)
	}
	db3, err := ipa.Reopen(db2.Crash())
	if err != nil {
		t.Fatalf("second Reopen: %v", err)
	}
	defer db3.Close()
	if err := db3.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after second crash: %v", err)
	}
	tbl3, ok := db3.Table("t")
	if !ok {
		t.Fatalf("table missing after second reopen")
	}
	for k := int64(0); k < 90; k++ {
		got, err := tbl3.Get(k)
		if err != nil {
			t.Fatalf("Get %d after double crash: %v", k, err)
		}
		if !bytes.Equal(got, ckptRow(k, 1)) {
			t.Fatalf("key %d corrupted after double crash", k)
		}
	}
}

// TestWALSegmentRecycling drives sustained load through periodic
// checkpoints with tiny log segments and checks the live log stays
// bounded: truncation recycles whole segments in O(1) while the total
// bytes ever written keep growing.
func TestWALSegmentRecycling(t *testing.T) {
	cfg := checkpointConfig()
	cfg.Blocks = 96
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.WAL().SetSegmentBytes(4096)
	tbl, err := db.CreateTable("t", 256)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	row := func(k int64) []byte {
		b := make([]byte, 256)
		binary.LittleEndian.PutUint64(b, uint64(k))
		return b
	}
	lastCut := uint64(0)
	for k := int64(0); k < 200; k++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, k, row(k)); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit %d: %v", k, err)
		}
		if (k+1)%20 != 0 {
			continue
		}
		res, err := db.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint at %d: %v", k, err)
		}
		if res.TruncatedLSN < lastCut {
			t.Fatalf("truncation cut went backwards: %d after %d", res.TruncatedLSN, lastCut)
		}
		lastCut = res.TruncatedLSN
		if res.WALSegments > 3 {
			t.Fatalf("live log not bounded: %d segments after checkpoint (cut %d)",
				res.WALSegments, res.TruncatedLSN)
		}
		if res.WALLiveBytes > 3*4096 {
			t.Fatalf("live log not bounded: %d bytes after checkpoint", res.WALLiveBytes)
		}
	}
	if lastCut == 0 {
		t.Fatalf("checkpoints never advanced the truncation cut")
	}
	s := db.Stats()
	if s.WALBytes < 4*4096 {
		t.Fatalf("workload too small to exercise recycling: %d WAL bytes written", s.WALBytes)
	}
	if s.CheckpointLSN == 0 || s.WALSegments > 3 {
		t.Fatalf("stats gauges: CheckpointLSN=%d WALSegments=%d", s.CheckpointLSN, s.WALSegments)
	}
	if s.WALBytesSinceCheckpoint > s.WALBytes/2 {
		t.Fatalf("bytes-since-checkpoint gauge did not reset: %d of %d total",
			s.WALBytesSinceCheckpoint, s.WALBytes)
	}
}

// TestParallelRedoMatchesSerial runs the identical deterministic workload
// — inserts, updates, deletes, an abort and an in-flight loser around a
// mid-run checkpoint — under RecoveryParallelism 1 (the serial oracle) and
// 8, and requires bit-identical recovered tables.
func TestParallelRedoMatchesSerial(t *testing.T) {
	run := func(parallelism int) (*ipa.DB, ipa.RecoveryStats) {
		cfg := checkpointConfig()
		cfg.RecoveryParallelism = parallelism
		db, err := ipa.Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		tbl, err := db.CreateTable("t", 64)
		if err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		ckptInsert(t, db, tbl, 0, 80)
		if _, err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		ckptInsert(t, db, tbl, 80, 120)
		for k := int64(0); k < 120; k += 5 {
			tx := db.Begin()
			if err := tx.UpdateAt(tbl, k, 1, []byte{9, 9, 9}); err != nil {
				t.Fatalf("UpdateAt %d: %v", k, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("Commit update %d: %v", k, err)
			}
		}
		for k := int64(3); k < 120; k += 7 {
			tx := db.Begin()
			if err := tx.Delete(tbl, k); err != nil {
				t.Fatalf("Delete %d: %v", k, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("Commit delete %d: %v", k, err)
			}
		}
		// An aborted transaction and an in-flight loser: compensation and
		// undo must land identically under both worker counts.
		ab := db.Begin()
		if err := ab.UpdateAt(tbl, 11, 2, []byte{7, 7}); err != nil {
			t.Fatalf("abort update: %v", err)
		}
		if err := ab.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		loser := db.Begin()
		if err := loser.Insert(tbl, 5000, ckptRow(5000, 9)); err != nil {
			t.Fatalf("loser insert: %v", err)
		}
		db2, err := ipa.Reopen(db.Crash())
		if err != nil {
			t.Fatalf("Reopen (parallelism %d): %v", parallelism, err)
		}
		return db2, db2.RecoveryStats()
	}

	serialDB, serialStats := run(1)
	defer serialDB.Close()
	parallelDB, parallelStats := run(8)
	defer parallelDB.Close()

	if serialStats.Parallelism != 1 || parallelStats.Parallelism != 8 {
		t.Fatalf("parallelism not honoured: serial=%d parallel=%d",
			serialStats.Parallelism, parallelStats.Parallelism)
	}
	if serialStats.RecordsRedone != parallelStats.RecordsRedone {
		t.Fatalf("redo counts diverge: serial=%d parallel=%d",
			serialStats.RecordsRedone, parallelStats.RecordsRedone)
	}
	for _, db := range []*ipa.DB{serialDB, parallelDB} {
		if err := db.VerifyIntegrity(); err != nil {
			t.Fatalf("VerifyIntegrity: %v", err)
		}
	}
	st, _ := serialDB.Table("t")
	pt, _ := parallelDB.Table("t")
	type rowT struct {
		k int64
		v []byte
	}
	collect := func(tbl *ipa.Table) []rowT {
		var out []rowT
		if err := tbl.ScanRange(0, 10000, func(k int64, v []byte) bool {
			out = append(out, rowT{k, append([]byte(nil), v...)})
			return true
		}); err != nil {
			t.Fatalf("ScanRange: %v", err)
		}
		return out
	}
	sr, pr := collect(st), collect(pt)
	if len(sr) != len(pr) {
		t.Fatalf("row counts diverge: serial=%d parallel=%d", len(sr), len(pr))
	}
	for i := range sr {
		if sr[i].k != pr[i].k || !bytes.Equal(sr[i].v, pr[i].v) {
			t.Fatalf("row %d diverges between serial and parallel redo (key %d vs %d)",
				i, sr[i].k, pr[i].k)
		}
	}
}

// BenchmarkReopen measures time-to-recover: a checkpointed database with a
// fresh post-checkpoint tail is crashed and reopened per iteration.
func BenchmarkReopen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := checkpointConfig()
		cfg.Blocks = 96
		db, err := ipa.Open(cfg)
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		tbl, err := db.CreateTable("t", 64)
		if err != nil {
			b.Fatalf("CreateTable: %v", err)
		}
		for k := int64(0); k < 200; k++ {
			tx := db.Begin()
			if err := tx.Insert(tbl, k, ckptRow(k, 1)); err != nil {
				b.Fatalf("Insert: %v", err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatalf("Commit: %v", err)
			}
		}
		if _, err := db.Checkpoint(); err != nil {
			b.Fatalf("Checkpoint: %v", err)
		}
		for k := int64(200); k < 220; k++ {
			tx := db.Begin()
			if err := tx.Insert(tbl, k, ckptRow(k, 1)); err != nil {
				b.Fatalf("Insert: %v", err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatalf("Commit: %v", err)
			}
		}
		img := db.Crash()
		b.StartTimer()
		db2, err := ipa.Reopen(img)
		if err != nil {
			b.Fatalf("Reopen: %v", err)
		}
		b.StopTimer()
		db2.Close()
		b.StartTimer()
	}
}
