package ipa_test

import (
	"fmt"
	"reflect"
	"testing"

	"ipa"
	"ipa/internal/storage"
)

// eachCounter calls f with the name, `stat` tag and value of every uint64
// field of v and of the structs it embeds; an array of counters is one
// call per element.
func eachCounter(v reflect.Value, f func(name, tag string, n uint64)) {
	for i := 0; i < v.NumField(); i++ {
		sf, fv := v.Type().Field(i), v.Field(i)
		switch {
		case sf.Anonymous:
			eachCounter(fv, f)
		case sf.Type.Kind() == reflect.Uint64:
			f(sf.Name, sf.Tag.Get("stat"), fv.Uint())
		case sf.Type.Kind() == reflect.Array && sf.Type.Elem().Kind() == reflect.Uint64:
			for j := 0; j < fv.Len(); j++ {
				f(fmt.Sprintf("%s[%d]", sf.Name, j), sf.Tag.Get("stat"), fv.Index(j).Uint())
			}
		}
	}
}

// windowFixture loads a small two-chip MLC device far enough to run its
// garbage collector and disturb paired pages, with a checkpoint halfway,
// and returns the Stats just before and just after a ResetStats. With one
// delta record per page, a page is re-programmed at most once between
// erases, so each page of a wordline flips at most one bit — always
// correctable, whichever pages the update stream and the eviction order
// happen to append to.
func windowFixture(t *testing.T) (before, after ipa.Stats) {
	t.Helper()
	cfg := smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 1, M: 4}, ipa.MLCFull)
	cfg.Chips, cfg.Blocks, cfg.InterferenceProb = 2, 12, 0.02
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("t", 256)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const rows = 1500
	for k := int64(0); k < rows; k++ {
		if err := insertRow(db, tbl, k, fillTuple(256, k)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 3000; i++ {
		if err := updateRow(db, tbl, int64(i*37)%rows, 8, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	before = db.Stats()
	db.ResetStats()
	return before, db.Stats()
}

// TestOneMeasurementWindow pins what ResetStats is: a mark where the Stats
// window starts. Every windowed counter reads zero after it; nothing else —
// gauges, lifetime figures, the commit's checkpoint trigger — notices it.
func TestOneMeasurementWindow(t *testing.T) {
	var before, after ipa.Stats
	fixture := func(t *testing.T) {
		if before.Chips == 0 {
			before, after = windowFixture(t)
		}
	}
	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"windowed fields read zero", func(t *testing.T) {
			fixture(t)
			if before.BufferHits == 0 || before.BufferMisses == 0 || before.InterferenceBits == 0 ||
				before.GCRuns == 0 || before.Elapsed == 0 {
				t.Fatalf("fixture too light: hits %d misses %d interference %d gc %d elapsed %v",
					before.BufferHits, before.BufferMisses, before.InterferenceBits, before.GCRuns, before.Elapsed)
			}
			eachCounter(reflect.ValueOf(after), func(name, tag string, n uint64) {
				if tag == "" && n != 0 {
					t.Errorf("%s = %d right after ResetStats, want 0", name, n)
				}
			})
			for _, c := range after.ChipStats {
				if c.GCRuns != 0 || c.GCMigrations != 0 || c.GCErases != 0 {
					t.Errorf("chip %d GC counters %+v right after ResetStats, want 0", c.Chip, c)
				}
			}
			if after.Elapsed != 0 {
				t.Errorf("Elapsed = %v right after ResetStats, want 0", after.Elapsed)
			}
		}},
		{"gauges and lifetime figures do not move", func(t *testing.T) {
			fixture(t)
			if before.CheckpointLSN == 0 || before.WALBytesSinceCheckpoint == 0 || before.TotalErasesEver == 0 {
				t.Fatalf("fixture too light: %+v", before)
			}
			for _, f := range []struct {
				name          string
				before, after uint64
			}{
				{"CheckpointLSN", before.CheckpointLSN, after.CheckpointLSN},
				{"WALBytesSinceCheckpoint", before.WALBytesSinceCheckpoint, after.WALBytesSinceCheckpoint},
				{"TotalErasesEver", before.TotalErasesEver, after.TotalErasesEver},
				{"VersionChainsLive", before.VersionChainsLive, after.VersionChainsLive},
			} {
				if f.before != f.after {
					t.Errorf("%s %d -> %d across ResetStats", f.name, f.before, f.after)
				}
			}
			for i, c := range after.ChipStats {
				b := before.ChipStats[i]
				if c.PageReads != b.PageReads || c.PagePrograms != b.PagePrograms ||
					c.DeltaPrograms != b.DeltaPrograms || c.BlockErases != b.BlockErases || c.Busy != b.Busy {
					t.Errorf("chip %d raw counters %+v -> %+v across ResetStats", i, b, c)
				}
			}
		}},
		{"checkpointer fires at the same byte count", func(t *testing.T) {
			// rows is how many single-insert transactions log the threshold
			// checkpointRows asks for; the arm that resets halfway must
			// checkpoint at the same row, neither earlier nor later.
			rows := checkpointRows(t, false, 0)
			checkpointRows(t, true, rows)
		}},
		{"trace holds only later events", func(t *testing.T) {
			cfg := smallConfig(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)
			cfg.TraceEvictions = true
			db, err := ipa.Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer db.Close()
			tbl, err := db.CreateTable("t", 256)
			if err != nil {
				t.Fatalf("CreateTable: %v", err)
			}
			for k := int64(0); k < 400; k++ {
				if err := insertRow(db, tbl, k, fillTuple(256, k)); err != nil {
					t.Fatalf("insert %d: %v", k, err)
				}
			}
			loaded := len(db.Trace())
			db.ResetStats()
			if n := len(db.Trace()); loaded == 0 || n != 0 {
				t.Fatalf("trace holds %d events right after ResetStats (%d before), want 0", n, loaded)
			}
			if err := db.FlushAll(); err != nil {
				t.Fatalf("FlushAll: %v", err)
			}
			s := db.Stats()
			evicts := 0
			for _, ev := range db.Trace() {
				if ev.Type == storage.TraceEvict {
					evicts++
				}
			}
			if evicts == 0 || uint64(evicts) != s.DirtyEvictions {
				t.Fatalf("trace holds %d evictions after ResetStats, Stats counts %d", evicts, s.DirtyEvictions)
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}

// checkpointRows opens a database that checkpoints every 8 KiB of log,
// inserts rows one transaction each and returns how many it took for the
// commit that crosses the threshold to checkpoint, checking after every
// commit that none did before it and exactly one did then. With want > 0
// it calls ResetStats halfway when reset is set, and requires the
// checkpoint on row want.
func checkpointRows(t *testing.T, reset bool, want int) int {
	t.Helper()
	cfg := checkpointConfig()
	cfg.CheckpointEveryBytes = 8 << 10
	db, err := ipa.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", 64)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for rows := 1; rows <= 1000; rows++ {
		if err := insertRow(db, tbl, int64(rows), ckptRow(int64(rows), 1)); err != nil {
			t.Fatalf("insert %d: %v", rows, err)
		}
		if reset && rows == want/2 {
			db.ResetStats()
		}
		s := db.Stats()
		if s.CheckpointLSN == 0 && s.Checkpoints == 0 {
			if s.WALBytesSinceCheckpoint >= cfg.CheckpointEveryBytes || rows == want {
				t.Fatalf("row %d crossed %d WAL bytes without a checkpoint (want one on row %d, reset halfway: %v)",
					rows, s.WALBytesSinceCheckpoint, want, reset)
			}
			continue
		}
		if s.CheckpointLSN == 0 || s.Checkpoints != 1 || want > 0 && rows != want {
			t.Fatalf("row %d: CheckpointLSN %d, Checkpoints %d; want the one checkpoint on row %d (reset halfway: %v)",
				rows, s.CheckpointLSN, s.Checkpoints, want, reset)
		}
		return rows
	}
	t.Fatalf("no checkpoint in 1000 rows")
	return 0
}
