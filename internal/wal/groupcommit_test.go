package wal

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// appendCommit appends a commit record for txn and returns its LSN.
func appendCommit(l *Log, txn uint64) uint64 {
	return l.Append(Record{TxnID: txn, Type: RecCommit})
}

// pendingCommits returns the number of waiters queued behind the current
// flush leader.
func pendingCommits(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.waiters)
}

// TestCommitFlushMakesDurable checks the single-caller fast path.
func TestCommitFlushMakesDurable(t *testing.T) {
	l := New()
	lsn := appendCommit(l, 1)
	l.CommitFlush(lsn)
	if l.FlushedLSN() != lsn {
		t.Fatalf("FlushedLSN = %d, want %d", l.FlushedLSN(), lsn)
	}
	if l.BytesWritten() == 0 {
		t.Fatalf("flushed bytes not accounted")
	}
	// Flushing an already-durable LSN is a no-op.
	before := l.GroupCommitStats()
	l.CommitFlush(lsn)
	after := l.GroupCommitStats()
	if after.WALFlushes != before.WALFlushes {
		t.Fatalf("no-op commit flush must not write: %+v -> %+v", before, after)
	}
}

// TestGroupCommitBatchesFollowers drives the leader/follower pipeline
// deterministically: while the leader is writing the log device (blocked
// inside the flush hook), followers queue up and must be served by a
// single shared flush.
func TestGroupCommitBatchesFollowers(t *testing.T) {
	const followers = 5
	l := New()
	entered := make(chan struct{}, followers+2)
	release := make(chan struct{})
	l.SetFlushHook(func(int) error {
		entered <- struct{}{}
		<-release
		return nil
	})

	var wg sync.WaitGroup
	leaderLSN := appendCommit(l, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.CommitFlush(leaderLSN)
	}()
	// Wait for the leader to start writing the log device.
	<-entered

	var maxLSN uint64
	for i := 0; i < followers; i++ {
		lsn := appendCommit(l, uint64(2+i))
		if lsn > maxLSN {
			maxLSN = lsn
		}
		wg.Add(1)
		go func(lsn uint64) {
			defer wg.Done()
			l.CommitFlush(lsn)
		}(lsn)
	}
	// Wait until every follower has queued behind the in-flight flush.
	deadline := time.Now().Add(5 * time.Second)
	for pendingCommits(l) < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers queued", pendingCommits(l), followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if l.FlushedLSN() < maxLSN {
		t.Fatalf("FlushedLSN = %d, want >= %d", l.FlushedLSN(), maxLSN)
	}
	s := l.GroupCommitStats()
	if s.WALFlushes != 2 {
		t.Fatalf("expected 2 flushes (leader + one shared batch), got %d", s.WALFlushes)
	}
	if s.WALFlushedCommits != followers+1 {
		t.Fatalf("WALFlushedCommits = %d, want %d", s.WALFlushedCommits, followers+1)
	}
	if s.WALMaxCommitBatch != followers {
		t.Fatalf("WALMaxCommitBatch = %d, want %d", s.WALMaxCommitBatch, followers)
	}
}

// TestFlushDoesNotCountAsCommit: stand-alone Flush calls share the flush
// pipeline but must not inflate the group-commit batch statistics.
func TestFlushDoesNotCountAsCommit(t *testing.T) {
	l := New()
	l.Append(Record{TxnID: 1, Type: RecUpdate, New: []byte{1}})
	l.Flush(0)
	s := l.GroupCommitStats()
	if s.WALFlushes != 1 {
		t.Fatalf("WALFlushes = %d, want 1", s.WALFlushes)
	}
	if s.WALFlushedCommits != 0 || s.WALMaxCommitBatch != 0 {
		t.Fatalf("stand-alone Flush counted as a commit: %+v", s)
	}
	lsn := appendCommit(l, 1)
	l.CommitFlush(lsn)
	s = l.GroupCommitStats()
	if s.WALFlushedCommits != 1 || s.WALMaxCommitBatch != 1 {
		t.Fatalf("commit not counted: %+v", s)
	}
}

// TestConcurrentCommitFlushStress hammers CommitFlush from many goroutines
// and checks the accounting invariants (run with -race).
func TestConcurrentCommitFlushStress(t *testing.T) {
	const workers = 8
	const commitsPerWorker = 200
	l := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commitsPerWorker; i++ {
				lsn := l.Append(Record{TxnID: uint64(w*commitsPerWorker + i + 1), Type: RecCommit})
				l.CommitFlush(lsn)
				if l.FlushedLSN() < lsn {
					t.Errorf("commit %d not durable after CommitFlush", lsn)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := l.GroupCommitStats()
	if s.WALFlushedCommits != workers*commitsPerWorker {
		t.Fatalf("WALFlushedCommits = %d, want %d", s.WALFlushedCommits, workers*commitsPerWorker)
	}
	if s.WALFlushes == 0 || s.WALFlushes > s.WALFlushedCommits {
		t.Fatalf("implausible flush count: %+v", s)
	}
	// Every record is a commit, and each was flushed exactly once.
	var want uint64
	for _, r := range l.Records() {
		want += uint64(r.EncodedSize())
	}
	if l.BytesWritten() != want {
		t.Fatalf("BytesWritten = %d, want %d (no double accounting)", l.BytesWritten(), want)
	}
}

// TestHookErrorReachesLeaderAndFollowers: the leader has no waiter object,
// so its error travels by a local; followers that queued behind it are a
// batch of their own and learn the outcome of their own write. Nothing a
// failed write carried becomes durable or is accounted.
func TestHookErrorReachesLeaderAndFollowers(t *testing.T) {
	const followers = 3
	l := New()
	powerCut := errors.New("power cut")
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	l.SetFlushHook(func(int) error {
		entered <- struct{}{}
		<-release
		return powerCut
	})

	errs := make(chan error, followers+1)
	leaderLSN := appendCommit(l, 1)
	go func() { errs <- l.CommitFlush(leaderLSN) }()
	<-entered // the leader is inside the hook
	for i := 0; i < followers; i++ {
		lsn := appendCommit(l, uint64(2+i))
		go func() { errs <- l.CommitFlush(lsn) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for pendingCommits(l) < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers queued", pendingCommits(l), followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < followers+1; i++ {
		if err := <-errs; !errors.Is(err, powerCut) {
			t.Fatalf("caller %d: err = %v, want the hook's error", i, err)
		}
	}
	if got := l.FlushedLSN(); got != 0 {
		t.Fatalf("FlushedLSN = %d after two failed writes, want 0", got)
	}
	if got := l.BytesWritten(); got != 0 {
		t.Fatalf("BytesWritten = %d after two failed writes, want 0", got)
	}
	if s := l.GroupCommitStats(); s != (GroupCommitStats{}) {
		t.Fatalf("failed writes were counted: %+v", s)
	}
	// The log is usable again: the next caller leads and its flush covers
	// everything the failed ones left behind.
	l.SetFlushHook(nil)
	if err := l.CommitFlush(0); err != nil {
		t.Fatalf("flush after the failures: %v", err)
	}
	var want uint64
	for _, r := range l.Records() {
		want += uint64(r.EncodedSize())
	}
	if l.BytesWritten() != want {
		t.Fatalf("BytesWritten = %d, want %d: every record flushed once", l.BytesWritten(), want)
	}
}

// TestUncontendedCommitFlushAllocatesNothing pins the implicit leader: a
// committer that finds no flush in flight needs no waiter, no channel and
// no queue slot.
func TestUncontendedCommitFlushAllocatesNothing(t *testing.T) {
	l := New()
	hooked := 0
	l.SetFlushHook(func(int) error { hooked++; return nil })
	rec := Record{TxnID: 1, Type: RecCommit}
	for i := 0; i < 300; i++ { // the first tail of a log grows by doubling: get past 512
		l.CommitFlush(l.Append(rec))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := l.CommitFlush(l.Append(rec)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("uncontended Append + CommitFlush allocates %.1f times, want 0", allocs)
	}
	if s := l.GroupCommitStats(); hooked != int(s.WALFlushes) || s.WALFlushes != s.WALFlushedCommits {
		t.Fatalf("%d hook calls for %+v: want one write per commit", hooked, s)
	}
}

// TestLeaderHandsOverAfterItsOwnBatch: a leader writes the batch it is part
// of and returns; followers that queued meanwhile are led by the first of
// them. A leader that stayed on to serve them would hold its caller's
// commit — durable long since — for as long as others keep committing, and
// with it the oracle's watermark, which every later commit waits for.
func TestLeaderHandsOverAfterItsOwnBatch(t *testing.T) {
	l := New()
	entered := make(chan struct{}, 2)
	release := []chan struct{}{make(chan struct{}), make(chan struct{})}
	writes := 0
	l.SetFlushHook(func(int) error {
		n := writes
		writes++
		entered <- struct{}{}
		<-release[n]
		return nil
	})
	leaderLSN := appendCommit(l, 1)
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- l.CommitFlush(leaderLSN) }()
	<-entered

	const followers = 2
	followersDone := make(chan error, followers)
	var lastLSN uint64
	for i := 0; i < followers; i++ {
		lsn := appendCommit(l, uint64(2+i))
		lastLSN = lsn
		go func() { followersDone <- l.CommitFlush(lsn) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for pendingCommits(l) < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers queued", pendingCommits(l), followers)
		}
		time.Sleep(time.Millisecond)
	}

	close(release[0])
	select {
	case err := <-leaderDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the leader's own batch is durable but it has not returned: it is serving the next batch")
	}
	<-entered // the second write is under way, led by a follower
	if got := l.FlushedLSN(); got != leaderLSN {
		t.Fatalf("FlushedLSN = %d during the second write, want %d", got, leaderLSN)
	}
	close(release[1])
	for i := 0; i < followers; i++ {
		if err := <-followersDone; err != nil {
			t.Fatal(err)
		}
	}
	if got := l.FlushedLSN(); got != lastLSN {
		t.Fatalf("FlushedLSN = %d, want %d", got, lastLSN)
	}
	if s := l.GroupCommitStats(); s != (GroupCommitStats{WALBytes: l.BytesWritten(), WALFlushes: 2, WALFlushedCommits: 3, WALMaxCommitBatch: 2}) {
		t.Fatalf("stats %+v, want 2 writes for 3 commits, the second shared by 2", s)
	}
}

// TestAppendCommitWithoutHookFlushesOnce: with no log device to wait for,
// AppendCommit appends and flushes in one critical section, and a commit
// still counts as exactly one flush serving one commit — allocating
// nothing, like the uncontended CommitFlush it replaces.
func TestAppendCommitWithoutHookFlushesOnce(t *testing.T) {
	l := New()
	l.Append(Record{TxnID: 1, Type: RecUpdate, New: []byte{1, 2, 3}})
	if err := l.AppendCommit(Record{TxnID: 1, Type: RecCommit, Key: 7}); err != nil {
		t.Fatal(err)
	}
	recs := l.Records()
	last := recs[len(recs)-1]
	if last.Type != RecCommit || last.Key != 7 || l.FlushedLSN() != last.LSN {
		t.Fatalf("last record %+v, FlushedLSN %d: want the commit record, durable", last, l.FlushedLSN())
	}
	want := GroupCommitStats{WALBytes: uint64(recs[0].EncodedSize() + last.EncodedSize()), WALFlushes: 1, WALFlushedCommits: 1, WALMaxCommitBatch: 1}
	if s := l.GroupCommitStats(); s != want {
		t.Fatalf("one commit counted as %+v, want %+v", s, want)
	}
	rec := Record{TxnID: 2, Type: RecCommit}
	for i := 0; i < 300; i++ { // the first tail of a log grows by doubling: get past 512
		l.AppendCommit(rec)
	}
	before := l.GroupCommitStats()
	allocs := testing.AllocsPerRun(200, func() {
		if err := l.AppendCommit(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendCommit allocates %.1f times, want 0", allocs)
	}
	if s := l.GroupCommitStats(); s.WALFlushes-before.WALFlushes != 201 || s.WALFlushedCommits-before.WALFlushedCommits != 201 {
		t.Fatalf("201 commits counted as %+v -> %+v: want one flush and one commit each", before, s)
	}
}

// TestAppendCommitPowerCutReachesFollowers: a failed log-device write under
// AppendCommit fails the leader's commit and every commit queued behind it,
// and nothing they appended becomes durable.
func TestAppendCommitPowerCutReachesFollowers(t *testing.T) {
	const followers = 3
	l := New()
	if err := l.AppendCommit(Record{TxnID: 1, Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	durable := l.FlushedLSN()
	powerCut := errors.New("power cut")
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	l.SetFlushHook(func(int) error {
		entered <- struct{}{}
		<-release
		return powerCut
	})
	errs := make(chan error, followers+1)
	go func() { errs <- l.AppendCommit(Record{TxnID: 2, Type: RecCommit}) }()
	<-entered // the leader is inside the hook
	for i := 0; i < followers; i++ {
		go func() { errs <- l.AppendCommit(Record{TxnID: uint64(3 + i), Type: RecCommit}) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for pendingCommits(l) < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers queued", pendingCommits(l), followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < followers+1; i++ {
		if err := <-errs; !errors.Is(err, powerCut) {
			t.Fatalf("commit %d: err = %v, want the hook's error", i, err)
		}
	}
	if got := l.FlushedLSN(); got != durable {
		t.Fatalf("FlushedLSN = %d after the failed writes, want %d", got, durable)
	}
	if s := l.GroupCommitStats(); s.WALFlushes != 1 || s.WALFlushedCommits != 1 {
		t.Fatalf("failed writes were counted: %+v", s)
	}
}
