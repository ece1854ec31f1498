package txn

import (
	"math/rand"
	"testing"
)

// mapOracle is the oracle as it was before it kept ordered lists: pending
// timestamps and snapshot reference counts in maps, the oldest snapshot
// found by a scan. FuzzOracleMatchesModel holds the Oracle to it.
type mapOracle struct {
	last, watermark uint64
	pending         map[uint64]bool
	active          map[uint64]int
}

func (o *mapOracle) startAt(ts uint64) {
	o.last, o.watermark = max(o.last, ts), max(o.watermark, ts)
}

func (o *mapOracle) beginCommit() uint64 {
	o.last++
	o.pending[o.last] = true
	return o.last
}

func (o *mapOracle) endCommit(ts uint64) (bool, uint64) {
	delete(o.pending, ts)
	for o.watermark < o.last && !o.pending[o.watermark+1] {
		o.watermark++
	}
	return o.watermark >= ts, o.oldest()
}

func (o *mapOracle) acquire() uint64 {
	o.active[o.watermark]++
	return o.watermark
}

func (o *mapOracle) release(ts uint64) {
	if n := o.active[ts]; n > 1 {
		o.active[ts] = n - 1
	} else {
		delete(o.active, ts)
	}
}

func (o *mapOracle) oldest() uint64 {
	oldest := o.watermark
	for ts := range o.active {
		oldest = min(oldest, ts)
	}
	return oldest
}

func (o *mapOracle) snapshots() int {
	n := 0
	for _, c := range o.active {
		n += c
	}
	return n
}

// FuzzOracleMatchesModel drives the Oracle and mapOracle with one sequence
// of BeginCommit, EndCommit (in any order, repeated, and of timestamps
// never handed out), AcquireSnapshot, ReleaseSnapshot (repeated, doubled,
// and of timestamps never acquired) and StartAt, two bytes a step: the
// operation and its argument. After every step each reading must agree.
func FuzzOracleMatchesModel(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		ops := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	// Three commits ended last-first, a snapshot released twice, a release
	// of a timestamp nobody holds, and a restart with a commit in flight.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 2, 1, 1, 2, 0, 1, 0, 2, 0, 3, 0, 3, 0, 3, 250, 0, 0, 4, 20, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		o := NewOracle()
		m := &mapOracle{pending: map[uint64]bool{}, active: map[uint64]int{}}
		var begun, acquired []uint64
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step]%5, ops[step+1]
			switch op {
			case 0:
				ts, want := o.BeginCommit(), m.beginCommit()
				if ts != want {
					t.Fatalf("step %d: BeginCommit = %d, model %d", step, ts, want)
				}
				begun = append(begun, ts)
			case 1:
				ts := m.last + uint64(arg%3) // mostly never handed out
				if len(begun) > 0 && arg < 240 {
					ts = begun[int(arg)%len(begun)]
				}
				visible, oldest := o.EndCommit(ts)
				wantVisible, wantOldest := m.endCommit(ts)
				if visible != wantVisible || oldest != wantOldest {
					t.Fatalf("step %d: EndCommit(%d) = %v, %d; model %v, %d", step, ts, visible, oldest, wantVisible, wantOldest)
				}
			case 2:
				ts, want := o.AcquireSnapshot(), m.acquire()
				if ts != want {
					t.Fatalf("step %d: AcquireSnapshot = %d, model %d", step, ts, want)
				}
				acquired = append(acquired, ts)
			case 3:
				ts := uint64(arg % 16) // perhaps never acquired
				if len(acquired) > 0 && arg < 240 {
					ts = acquired[int(arg)%len(acquired)] // perhaps released already
				}
				o.ReleaseSnapshot(ts)
				m.release(ts)
			case 4:
				ts := uint64(arg) % (m.last + 8)
				o.StartAt(ts)
				m.startAt(ts)
			}
			oldest := m.oldest()
			if got := o.Watermark(); got != m.watermark {
				t.Fatalf("step %d: Watermark = %d, model %d", step, got, m.watermark)
			}
			if got := o.OldestActive(); got != oldest {
				t.Fatalf("step %d: OldestActive = %d, model %d", step, got, oldest)
			}
			for _, ts := range []uint64{oldest, oldest + 1, m.watermark + 1} {
				if got, want := o.NoActiveBefore(ts), oldest >= ts; got != want {
					t.Fatalf("step %d: NoActiveBefore(%d) = %v, model %v", step, ts, got, want)
				}
			}
			if got, want := o.ActiveSnapshots(), m.snapshots(); got != want {
				t.Fatalf("step %d: ActiveSnapshots = %d, model %d", step, got, want)
			}
			if got, want := o.SnapshotAge(), m.watermark-oldest; got != want {
				t.Fatalf("step %d: SnapshotAge = %d, model %d", step, got, want)
			}
		}
	})
}
