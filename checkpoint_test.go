package ipa_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

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

// TestReopenIsDeterministic requires recovery to be a function of the
// crash image. One workload — inserts, updates and deletes around a
// mid-run checkpoint, an abort and an in-flight loser — is built from
// scratch and crashed five times. Each image is reopened under the same
// re-armed fault plan, which crashes before every second device operation,
// until Reopen succeeds. The five recoveries must survive the same number
// of crashes and end with the same device counters and virtual clock, and
// with the expected rows: updates applied, deletes gone, the abort
// compensated and the loser's insert absent.
func TestReopenIsDeterministic(t *testing.T) {
	type outcome struct {
		crashes int
		ftl     ipa.FTLStats
		dev     ipa.DeviceStats
		now     time.Duration
	}
	run := func() outcome {
		cfg := checkpointConfig()
		plan := ipa.NewFaultPlan(0, ipa.CrashBefore)
		cfg.Faults = plan
		db, err := ipa.Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		tbl, err := db.CreateTable("t", 64)
		if err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		// Three more tables, written on both sides of the checkpoint,
		// make recovery load four indexes through a pool too small for
		// all of them: their order must not depend on map iteration.
		var others []*ipa.Table
		for _, name := range []string{"u", "v", "w"} {
			other, err := db.CreateTable(name, 64)
			if err != nil {
				t.Fatalf("CreateTable: %v", err)
			}
			ckptInsert(t, db, other, 0, 200)
			others = append(others, other)
		}
		ckptInsert(t, db, tbl, 0, 80)
		if _, err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		ckptInsert(t, db, tbl, 80, 120)
		for _, other := range others {
			ckptInsert(t, db, other, 200, 230)
		}
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
		img := db.Crash()

		crashes := 0
		var db2 *ipa.DB
		for j := uint64(1); ; j += 2 {
			plan.Arm(j, ipa.CrashBefore)
			if db2, err = ipa.Reopen(img); err == nil {
				break
			}
			if !errors.Is(err, ipa.ErrPowerLost) {
				t.Fatalf("Reopen: %v", err)
			}
			if crashes++; crashes > 200 {
				t.Fatalf("recovery never completed under repeated crashes")
			}
		}
		defer db2.Close()
		plan.Disarm()
		if crashes == 0 {
			t.Fatalf("recovery performed no faultable work")
		}
		if err := db2.VerifyIntegrity(); err != nil {
			t.Fatalf("VerifyIntegrity: %v", err)
		}
		tbl2, _ := db2.Table("t")
		var got []int64
		if err := tbl2.ScanRange(0, 10000, func(k int64, v []byte) bool {
			want := ckptRow(k, 1)
			if k%5 == 0 {
				copy(want[1:], []byte{9, 9, 9})
			}
			if !bytes.Equal(v, want) {
				t.Errorf("key %d = %v, want %v", k, v, want)
			}
			got = append(got, k)
			return true
		}); err != nil {
			t.Fatalf("ScanRange: %v", err)
		}
		var keys []int64
		for k := int64(0); k < 120; k++ {
			if k%7 != 3 {
				keys = append(keys, k)
			}
		}
		if !slices.Equal(got, keys) {
			t.Fatalf("recovered keys %v, want %v", got, keys)
		}
		s := db2.Stats()
		return outcome{crashes, s.FTLStats, s.DeviceStats, db2.Now()}
	}

	first := run()
	t.Logf("recovery survived %d crashes before completing", first.crashes)
	for i := 1; i < 5; i++ {
		if o := run(); !reflect.DeepEqual(o, first) {
			t.Fatalf("run %d recovered differently from run 0:\n got %+v\nwant %+v", i, o, first)
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
