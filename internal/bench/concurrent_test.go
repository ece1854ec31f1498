package bench

import (
	"strings"
	"testing"
)

// TestConcurrentScenario runs a shrunken goroutine ladder and checks the
// accounting of every row.
func TestConcurrentScenario(t *testing.T) {
	o := small(t, "concurrent", 400)
	// A pool that holds the whole table: no write-back ever forces the log,
	// so every WAL flush below is a commit flush.
	o.Profile.BufferPoolPages = 128
	res, err := Concurrent(o)
	if err != nil {
		t.Fatalf("Concurrent: %v", err)
	}
	if len(res.Rows) != len(ladder(0)) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(ladder(0)))
	}
	for _, row := range res.Rows {
		if row.CommittedTxns != 400 {
			t.Errorf("goroutines=%d committed %d, want 400", row.Goroutines, row.CommittedTxns)
		}
		if row.OpsPerSec() <= 0 {
			t.Errorf("goroutines=%d reported no throughput", row.Goroutines)
		}
		if row.WALFlushes == 0 || row.WALFlushes > row.CommittedTxns {
			t.Errorf("goroutines=%d implausible flush count %d", row.Goroutines, row.WALFlushes)
		}
		if row.CommitsPerFlush() < 1 {
			t.Errorf("goroutines=%d commits/flush %f < 1", row.Goroutines, row.CommitsPerFlush())
		}
		if row.BufferShards < 2 {
			t.Errorf("expected a sharded pool, got %d shards", row.BufferShards)
		}
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "goroutines") {
		t.Errorf("Write produced no table:\n%s", sb.String())
	}
	if first := strings.Split(sb.String(), "\n")[2]; !strings.HasSuffix(first, " 1.00x") {
		t.Errorf("baseline row %q: want a speedup of 1.00x", first)
	}
}

// TestDriveRejectsBadGoroutineCount pins the driver's input check.
func TestDriveRejectsBadGoroutineCount(t *testing.T) {
	o := small(t, "readmix", 10)
	o.Threads = 0
	if _, err := ReadMix(o); err == nil {
		t.Fatal("a run with no goroutines must be rejected")
	}
}
