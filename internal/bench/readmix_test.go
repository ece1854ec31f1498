package bench

import (
	"strings"
	"testing"
)

// TestReadMixScenario runs one 100%-read cell of the read-skew ladder in
// both read modes and checks the accounting — in particular that the
// snapshot row is lock-free and the locked row is not.
func TestReadMixScenario(t *testing.T) {
	o := small(t, "readmix", 200)
	o.Threads = 4
	res := ReadMixResult{Options: o}
	for _, locked := range []bool{false, true} {
		row, err := runReadMix(o, 100, locked)
		if err != nil {
			t.Fatalf("runReadMix(locked=%v): %v", locked, err)
		}
		res.Rows = append(res.Rows, row)
	}
	snap, lock := res.Rows[0], res.Rows[1]
	for _, row := range res.Rows {
		if row.CommittedTxns != 200 {
			t.Errorf("locked=%v committed %d, want 200", row.Locked, row.CommittedTxns)
		}
	}
	// A 100%-read snapshot run takes no record locks at all; the locked
	// baseline takes one per read.
	if snap.LockAcquisitions != 0 {
		t.Errorf("snapshot run acquired %d record locks, want 0", snap.LockAcquisitions)
	}
	if snap.SnapshotReads == 0 {
		t.Errorf("snapshot run recorded no snapshot reads")
	}
	if lock.LockAcquisitions == 0 {
		t.Errorf("locked run acquired no record locks")
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "read%") {
		t.Errorf("Write produced no table:\n%s", sb.String())
	}
}

// TestReadMixLadderOrder checks that the full ladder comes out as
// (snapshot, locked) pairs per read percentage.
func TestReadMixLadderOrder(t *testing.T) {
	o := small(t, "readmix", 64)
	res, err := ReadMix(o)
	if err != nil {
		t.Fatalf("ReadMix: %v", err)
	}
	if len(res.Rows) != 2*len(readMixPcts) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 2*len(readMixPcts))
	}
	for i, row := range res.Rows {
		if row.ReadPct != readMixPcts[i/2] || row.Locked != (i%2 == 1) {
			t.Errorf("row %d = (%d%%, locked=%v), want (%d%%, locked=%v)",
				i, row.ReadPct, row.Locked, readMixPcts[i/2], i%2 == 1)
		}
	}
}

// TestDriveRejectsBadGoroutineCount pins the driver's input check.
func TestDriveRejectsBadGoroutineCount(t *testing.T) {
	o := small(t, "readmix", 10)
	o.Threads = 0
	if _, err := ReadMix(o); err == nil {
		t.Fatal("a run with no clients must be rejected")
	}
}
