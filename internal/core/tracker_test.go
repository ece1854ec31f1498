package core

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newTestTracker(n, m, existing int) *Tracker {
	return NewTracker(Scheme{N: n, M: m}, 4, 1024, existing)
}

func TestTrackerEligibleSmallUpdate(t *testing.T) {
	tr := newTestTracker(2, 4, 0)
	tr.RecordChange(100, 0x00, 0x01)
	tr.RecordChange(101, 0x10, 0x11)
	if !tr.Eligible() || !tr.Dirty() {
		t.Fatalf("small update should be eligible and dirty")
	}
	if tr.NetChangedBytes() != 2 {
		t.Fatalf("NetChangedBytes = %d", tr.NetChangedBytes())
	}
	recs := tr.BuildRecords([]byte{1, 2, 3, 4})
	if len(recs) != 1 || len(recs[0].Patches) != 2 {
		t.Fatalf("expected one record with two patches, got %+v", recs)
	}
}

func TestTrackerExceedsScheme(t *testing.T) {
	tr := newTestTracker(2, 4, 0)
	for i := 0; i < 9; i++ { // 9 > N*M = 8
		tr.RecordChange(i, 0, byte(i+1))
	}
	if !tr.OutOfPlace() {
		t.Fatalf("exceeding N×M must set the out-of-place flag")
	}
	if tr.Eligible() {
		t.Fatalf("out-of-place page cannot be eligible")
	}
	if recs := tr.BuildRecords([]byte{1, 2, 3, 4}); recs != nil {
		t.Fatalf("BuildRecords must return nil when not eligible")
	}
}

func TestTrackerExistingRecordsLimit(t *testing.T) {
	tr := newTestTracker(2, 4, 2)
	if !tr.OutOfPlace() {
		t.Fatalf("a page with all record slots used must evict out-of-place")
	}
	tr = newTestTracker(2, 4, 1)
	for i := 0; i < 5; i++ { // needs 2 records but only 1 slot remains
		tr.RecordChange(i, 0, 1)
	}
	if !tr.OutOfPlace() {
		t.Fatalf("changes that do not fit the remaining slots must set out-of-place")
	}
}

func TestTrackerRevertedChange(t *testing.T) {
	tr := newTestTracker(2, 4, 0)
	tr.RecordChange(50, 0xAA, 0xBB)
	tr.RecordChange(50, 0xBB, 0xAA) // back to the on-Flash value
	if tr.Dirty() {
		t.Fatalf("reverted change must leave the page clean")
	}
	if tr.NetChangedBytes() != 0 {
		t.Fatalf("NetChangedBytes = %d", tr.NetChangedBytes())
	}
}

func TestTrackerSameValueIgnored(t *testing.T) {
	tr := newTestTracker(2, 4, 0)
	tr.RecordChange(10, 0x42, 0x42)
	if tr.Dirty() {
		t.Fatalf("writing the same value is not a change")
	}
}

func TestTrackerMetadataOnly(t *testing.T) {
	tr := newTestTracker(2, 4, 0)
	tr.RecordMetaChange()
	if !tr.Dirty() || !tr.Eligible() {
		t.Fatalf("metadata change should be dirty and eligible")
	}
	recs := tr.BuildRecords([]byte{9, 9, 9, 9})
	if len(recs) != 1 || len(recs[0].Patches) != 0 {
		t.Fatalf("metadata-only eviction should produce one patchless record")
	}
}

func TestTrackerOutOfBodyOffset(t *testing.T) {
	tr := newTestTracker(2, 4, 0)
	tr.RecordChange(5000, 0, 1) // beyond bodyLen=1024
	if !tr.OutOfPlace() {
		t.Fatalf("out-of-body change must force out-of-place")
	}
}

func TestTrackerMultipleChangesSameByte(t *testing.T) {
	tr := newTestTracker(2, 4, 0)
	tr.RecordChange(7, 1, 2)
	tr.RecordChange(7, 2, 3)
	if tr.NetChangedBytes() != 1 {
		t.Fatalf("the same byte counts once, got %d", tr.NetChangedBytes())
	}
	recs := tr.BuildRecords(make([]byte, 4))
	if len(recs) != 1 || recs[0].Patches[0].Value != 3 {
		t.Fatalf("latest value must win: %+v", recs)
	}
}

func TestTrackerRestoreOriginal(t *testing.T) {
	tr := newTestTracker(2, 8, 0)
	buf := make([]byte, 32)
	for i := range buf {
		buf[i] = byte(i)
	}
	// Apply two in-place updates, informing the tracker.
	tr.RecordChange(3, buf[3], 0xEE)
	buf[3] = 0xEE
	tr.RecordChange(9, buf[9], 0xDD)
	buf[9] = 0xDD
	img := make([]byte, len(buf))
	tr.RestoreOriginal(img, buf)
	if img[3] != 3 || img[9] != 9 {
		t.Fatalf("RestoreOriginal did not undo the changes: %v", img[:12])
	}
	if buf[3] != 0xEE {
		t.Fatalf("RestoreOriginal must not modify the buffered page")
	}
}

func TestTrackerReset(t *testing.T) {
	tr := newTestTracker(2, 4, 0)
	tr.RecordChange(1, 0, 1)
	tr.RecordMetaChange()
	tr.Reset(1)
	if tr.Dirty() || tr.Existing() != 1 || tr.OutOfPlace() {
		t.Fatalf("Reset did not clear the state: dirty=%v existing=%d oop=%v", tr.Dirty(), tr.Existing(), tr.OutOfPlace())
	}
	tr.Reset(2)
	if !tr.OutOfPlace() {
		t.Fatalf("Reset to a full page must set out-of-place")
	}
}

func TestTrackerDisabledScheme(t *testing.T) {
	tr := NewTracker(Disabled, 4, 1024, 0)
	if !tr.OutOfPlace() || tr.Eligible() {
		t.Fatalf("disabled scheme must always be out-of-place")
	}
	tr.RecordChange(1, 0, 1) // must not panic or track
	if tr.NetChangedBytes() != 0 {
		t.Fatalf("disabled tracker should not track")
	}
}

func TestTrackerOriginalMeta(t *testing.T) {
	tr := newTestTracker(2, 4, 0)
	meta := []byte{1, 2, 3, 4}
	tr.SetOriginalMeta(meta)
	meta[0] = 99 // the tracker must have taken a copy
	if got := tr.OriginalMeta(); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("OriginalMeta = %v", got)
	}
	tr.Reset(1)
	if tr.OriginalMeta() == nil {
		t.Fatalf("Reset must preserve the original metadata snapshot")
	}
}

func TestTrackerRecordWrite(t *testing.T) {
	tr := newTestTracker(2, 8, 0)
	tr.RecordWrite(10, []byte{1, 2, 3, 4}, []byte{1, 9, 3, 8})
	if tr.NetChangedBytes() != 2 {
		t.Fatalf("RecordWrite should track only differing bytes, got %d", tr.NetChangedBytes())
	}
}

// TestTrackerEligibilityProperty: for arbitrary small change sets, the
// tracker is eligible exactly when the number of required records fits the
// free slots of the scheme.
func TestTrackerEligibilityProperty(t *testing.T) {
	f := func(offsets []uint16, existing uint8) bool {
		n, m := 4, 4
		ex := int(existing) % (n + 1)
		tr := NewTracker(Scheme{N: n, M: m}, 4, 1<<16-1, ex)
		seen := make(map[uint16]bool)
		for i, off := range offsets {
			if len(seen) >= 64 {
				break
			}
			off %= 4096
			if !seen[off] {
				seen[off] = true
			}
			tr.RecordChange(int(off), 0, byte(i+1))
		}
		distinct := len(seen)
		needed := (distinct + m - 1) / m
		wantEligible := distinct > 0 && needed <= n-ex || distinct == 0 && ex < n
		// Once the tracker went out-of-place it stays there, even if later
		// reverts would have made the set fit again; so only check the
		// "fits implies eligible" direction when it never overflowed.
		if wantEligible && needed <= n-ex && !tr.OutOfPlace() {
			return tr.Eligible()
		}
		if needed > n-ex {
			return tr.OutOfPlace() && !tr.Eligible()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("eligibility property: %v", err)
	}
}

// TestTrackerDoesNotAllocate pins the flat tracker: recording a write and its
// revert, starting over (Reset, Init), giving up (MarkOutOfPlace) and
// snapshotting the metadata allocate nothing on a tracker that has been used
// once — a buffer frame's, from its second residency on.
func TestTrackerDoesNotAllocate(t *testing.T) {
	var tr Tracker
	s := Scheme{N: 2, M: 4}
	meta := make([]byte, 48)
	old, patch := make([]byte, 8), bytes.Repeat([]byte{0x5A}, 8)
	residency := func() {
		tr.Init(s, 8000, 0)
		tr.SetOriginalMeta(meta)
		tr.RecordWrite(100, old, patch)
		tr.RecordWrite(100, patch, old) // reverted: clean again
		tr.RecordWrite(200, old, patch)
		if tr.Records() != 2 || len(tr.Record(1, meta).Patches) != 4 {
			t.Fatalf("8 changed bytes under %s: %d records", s, tr.Records())
		}
		tr.Reset(1)
		tr.RecordWrite(300, old, patch) // 8 bytes into one free slot of 4: the fifth stops tracking
		if !tr.OutOfPlace() || tr.Dirty() {
			t.Fatalf("out-of-place %v, dirty %v after overflowing the last slot", tr.OutOfPlace(), tr.Dirty())
		}
		tr.Reset(0)
		tr.MarkOutOfPlace()
	}
	residency()
	if allocs := testing.AllocsPerRun(100, residency); allocs != 0 {
		t.Fatalf("a tracker residency allocates %.0f times, want 0", allocs)
	}
}
