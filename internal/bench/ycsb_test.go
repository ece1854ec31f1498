package bench

import "testing"

// TestYCSBSweepSmall runs a tiny sweep end to end: the larger-than-memory
// sizing must actually exceed the pool and force evictions, and the
// update-heavy letter must profit from in-place appends.
func TestYCSBSweepSmall(t *testing.T) {
	res, err := YCSB(small(t, "ycsb", 1500))
	if err != nil {
		t.Fatalf("YCSB: %v", err)
	}
	if want := len(ycsbLetters) * len(ycsbHeapFactors); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	byKey := map[string]YCSBRow{}
	for _, r := range res.Rows {
		if r.Run.Committed == 0 {
			t.Errorf("%s %gx committed no ops", r.Workload, r.HeapFactor)
		}
		byKey[r.Workload+keyFactor(r.HeapFactor)] = r
	}
	small := byKey["ycsb-a|0.5"]
	large := byKey["ycsb-a|8"]
	if large.Records <= small.Records {
		t.Errorf("8x records %d not larger than cache-sized %d", large.Records, small.Records)
	}
	if large.DirtyEvictions == 0 {
		t.Error("larger-than-memory A run evicted nothing — pool not under pressure")
	}
	if large.InPlaceShare() <= 0 {
		t.Error("update-heavy A run recorded no in-place appends")
	}
	if c := byKey["ycsb-c|8"]; c.DirtyEvictions != 0 {
		t.Errorf("read-only C run evicted %d dirty pages", c.DirtyEvictions)
	}
}

func keyFactor(f float64) string {
	if f < 1 {
		return "|0.5"
	}
	return "|8"
}

// TestNewWorkloadYCSB covers the YCSB letters of NewWorkload.
func TestNewWorkloadYCSB(t *testing.T) {
	w, err := NewWorkload("ycsb-f", 1, 3)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	if w.Name() != "ycsb-f" {
		t.Fatalf("name = %q", w.Name())
	}
	if _, err := NewWorkload("ycsb-z", 1, 3); err == nil {
		t.Fatal("ycsb-z accepted")
	}
}
