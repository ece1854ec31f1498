package txn

import "sync"

// Oracle is the global commit-timestamp authority of the MVCC layer. It
// hands out commit timestamps, tracks which of them have finished
// committing, and registers reader snapshots.
//
// The visibility contract is: a snapshot S sees exactly the versions whose
// commit timestamp is <= S. To make that sound with concurrent commits,
// the watermark (the timestamp new snapshots read) advances only
// contiguously: timestamp T becomes visible when every commit <= T has
// either stamped its versions or been abandoned. A transaction calls
// BeginCommit before its commit record is flushed and EndCommit after its
// version chains are stamped (or after the flush failed and the
// transaction became a loser), so no snapshot can ever observe a
// timestamp whose versions are not yet readable.
type Oracle struct {
	mu        sync.Mutex
	advanced  sync.Cond       // on mu: the watermark moved (WaitVisible)
	last      uint64          // highest timestamp handed out by BeginCommit
	watermark uint64          // every commit <= watermark has finished
	pending   map[uint64]bool // handed out, not yet ended
	active    map[uint64]int  // snapshot timestamp -> reference count
}

// NewOracle creates an oracle starting at timestamp zero (the timestamp of
// everything recovery found committed — visible to every snapshot).
func NewOracle() *Oracle {
	o := &Oracle{
		pending: make(map[uint64]bool),
		active:  make(map[uint64]int),
	}
	o.advanced.L = &o.mu
	return o
}

// StartAt restarts the oracle after a crash: timestamps resume past ts,
// the highest commit timestamp found in the durable log. All surviving
// state is visible (committed at or before ts) and no snapshots exist.
func (o *Oracle) StartAt(ts uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ts > o.last {
		o.last = ts
	}
	if ts > o.watermark {
		o.watermark = ts
	}
}

// BeginCommit allocates the next commit timestamp and marks it pending.
// The caller must invoke EndCommit with the same timestamp exactly once,
// on success and failure alike — an unpaired BeginCommit stalls the
// watermark forever.
func (o *Oracle) BeginCommit() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.last++
	o.pending[o.last] = true
	return o.last
}

// EndCommit retires a commit timestamp and advances the watermark over
// every contiguously finished commit. It reports whether ts is now visible
// to new snapshots (the watermark has reached it); it is not while an
// earlier timestamp is still pending — see WaitVisible.
func (o *Oracle) EndCommit(ts uint64) (visible bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.pending, ts)
	before := o.watermark
	for o.watermark < o.last && !o.pending[o.watermark+1] {
		o.watermark++
	}
	if o.watermark != before {
		o.advanced.Broadcast()
	}
	return o.watermark >= ts
}

// WaitVisible blocks until the watermark has reached ts, i.e. until every
// commit at or before ts has ended and a snapshot acquired next reads at
// least ts. Every BeginCommit is paired with an EndCommit on success and
// failure alike, so the wait ends as soon as the earlier commits in flight
// do.
func (o *Oracle) WaitVisible(ts uint64) {
	o.mu.Lock()
	for o.watermark < ts {
		o.advanced.Wait()
	}
	o.mu.Unlock()
}

// Watermark returns the timestamp a snapshot acquired now would read.
func (o *Oracle) Watermark() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.watermark
}

// AcquireSnapshot registers a reader at the current watermark and returns
// its snapshot timestamp. Registration and watermark read happen under one
// lock, so garbage collection can never reclaim a version between the two.
// Every AcquireSnapshot must be paired with ReleaseSnapshot.
func (o *Oracle) AcquireSnapshot() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.active[o.watermark]++
	return o.watermark
}

// ReleaseSnapshot unregisters a reader.
func (o *Oracle) ReleaseSnapshot(ts uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if n := o.active[ts]; n > 1 {
		o.active[ts] = n - 1
	} else {
		delete(o.active, ts)
	}
}

// OldestActive returns the oldest registered snapshot timestamp, or the
// current watermark if no snapshot is active. Versions and index entries
// superseded at or before this timestamp are invisible to every present
// and future reader and may be reclaimed.
func (o *Oracle) OldestActive() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.oldestLocked()
}

func (o *Oracle) oldestLocked() uint64 {
	oldest := o.watermark
	for ts := range o.active {
		if ts < oldest {
			oldest = ts
		}
	}
	return oldest
}

// NoActiveBefore reports whether no active snapshot predates ts — i.e.
// whether state superseded at ts can be dropped immediately instead of
// being parked for the version garbage collector.
func (o *Oracle) NoActiveBefore(ts uint64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.oldestLocked() >= ts
}

// ActiveSnapshots returns the number of registered reader snapshots.
func (o *Oracle) ActiveSnapshots() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, c := range o.active {
		n += c
	}
	return n
}

// SnapshotAge returns the distance, in commit timestamps, between the
// watermark and the oldest active snapshot (0 with no active readers) —
// a direct measure of how much version history must be retained.
func (o *Oracle) SnapshotAge() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.watermark - o.oldestLocked()
}
