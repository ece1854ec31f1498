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
	advanced  sync.Cond // on mu: the watermark moved (WaitVisible)
	last      uint64    // highest timestamp handed out by BeginCommit
	watermark uint64    // every commit <= watermark has finished
	// ended[i] says whether timestamp watermark+1+i has ended; EndCommit
	// pops the finished prefix as the watermark advances over it.
	ended []bool
	// active holds each snapshot timestamp and its reader count, ascending:
	// snapshots read the watermark, which never falls, so the head is oldest.
	active []snapshotRef
}

// snapshotRef is a snapshot timestamp and the number of readers on it.
type snapshotRef struct{ ts, n uint64 }

// NewOracle creates an oracle starting at timestamp zero (the timestamp of
// everything recovery found committed — visible to every snapshot).
func NewOracle() *Oracle {
	o := &Oracle{}
	o.advanced.L = &o.mu
	return o
}

// StartAt restarts the oracle after a crash: timestamps resume past ts,
// the highest commit timestamp found in the durable log. All surviving
// state is visible (committed at or before ts) and no snapshots exist.
func (o *Oracle) StartAt(ts uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.last = max(o.last, ts)
	if ts > o.watermark { // the flags of the timestamps jumped over go too
		o.ended = o.ended[:copy(o.ended, o.ended[min(ts-o.watermark, uint64(len(o.ended))):])]
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
	o.ended = append(o.ended, false)
	return o.last
}

// EndCommit retires a commit timestamp and advances the watermark over
// every contiguously finished commit. It reports whether ts is now visible
// to new snapshots (the watermark has reached it); it is not while an
// earlier timestamp is still pending — see WaitVisible. oldest is
// OldestActive as of the same moment, for the commit's garbage collection.
func (o *Oracle) EndCommit(ts uint64) (visible bool, oldest uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ts > o.watermark && ts-o.watermark <= uint64(len(o.ended)) {
		o.ended[ts-o.watermark-1] = true
	}
	done := 0
	for done < len(o.ended) && o.ended[done] {
		done++
	}
	if done > 0 {
		o.ended = o.ended[:copy(o.ended, o.ended[done:])]
		o.watermark += uint64(done)
		o.advanced.Broadcast()
	}
	return o.watermark >= ts, o.oldestLocked()
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
	if n := len(o.active); n > 0 && o.active[n-1].ts == o.watermark {
		o.active[n-1].n++
	} else {
		o.active = append(o.active, snapshotRef{o.watermark, 1})
	}
	return o.watermark
}

// ReleaseSnapshot unregisters a reader. Releasing a timestamp no reader
// holds does nothing.
func (o *Oracle) ReleaseSnapshot(ts uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := len(o.active) - 1; i >= 0 && o.active[i].ts >= ts; i-- {
		if a := &o.active[i]; a.ts == ts {
			if a.n--; a.n == 0 {
				o.active = append(o.active[:i], o.active[i+1:]...)
			}
			return
		}
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
	if len(o.active) > 0 {
		return o.active[0].ts
	}
	return o.watermark
}

// NoActiveBefore reports whether no active snapshot predates ts — i.e.
// whether state superseded at ts can be dropped immediately instead of
// being parked for the version garbage collector.
func (o *Oracle) NoActiveBefore(ts uint64) bool {
	return o.OldestActive() >= ts
}

// ActiveSnapshots returns the number of registered reader snapshots.
func (o *Oracle) ActiveSnapshots() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, a := range o.active {
		n += int(a.n)
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
