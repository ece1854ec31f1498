// Package wal implements a write-ahead log with physiological undo/redo
// records.
//
// The paper stresses that In-Place Appends does not interfere with regular
// database functionality such as recovery: delta records are a storage
// representation of the very same in-place updates the WAL already
// describes. The log here exists to demonstrate exactly that — the engine
// logs every tuple update before it happens, the recovery test replays the
// log against a crashed storage state, and the result is identical whether
// pages were persisted with in-place appends or with traditional
// out-of-place writes.
//
// Log records are kept in memory (the experiments place the log on a
// separate device, as DBMSs commonly do). Each is accounted at its encoded
// size (EncodedSize), so log volume is measured, and recovery is tested end
// to end on the durable records themselves (DurableRecords, NewFromRecords).
// Records live in fixed-size segments: appends go to the active tail
// segment, sealed segments are immutable, and checkpoint truncation drops
// whole sealed segments in O(1) and recycles their backing arrays for new
// tails, so a long-running engine's log memory stays bounded by the
// checkpoint interval instead of growing with history.
package wal

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// RecordType enumerates log record kinds.
type RecordType uint8

const (
	// RecUpdate describes an in-place byte-range update of a tuple.
	RecUpdate RecordType = iota + 1
	// RecInsert describes a tuple insertion.
	RecInsert
	// RecDelete describes a tuple deletion.
	RecDelete
	// RecCommit marks a transaction as committed. Its Key field carries
	// the MVCC commit timestamp (Key is part of every record's fixed
	// header, so reusing it keeps the log format unchanged); recovery
	// restarts the timestamp oracle past the highest durable one.
	RecCommit
	// RecAbort marks a transaction as rolled back.
	RecAbort
	// RecCheckpoint marks a fuzzy checkpoint. PageID carries the
	// truncation cut (the LSN below which the log may be discarded), Key
	// the LSN at which the checkpoint began and New the encoded
	// active-transaction table captured while the checkpoint ran.
	RecCheckpoint
	// RecIndexInsert describes a logical index insertion: ObjectID names
	// the index (primary-key or secondary), Key the indexed key and New
	// the 8-byte little-endian packed RID of the indexed tuple.
	RecIndexInsert
	// RecIndexDelete describes a logical index deletion; Old carries the
	// packed RID of the removed entry. The primary key ignores the RID on
	// redo (keys are unique); non-unique secondary indexes need it to name
	// which of a key's entries is removed.
	RecIndexDelete
)

// String returns a short name for the record type.
func (t RecordType) String() string {
	switch t {
	case RecUpdate:
		return "UPDATE"
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecIndexInsert:
		return "IDX-INSERT"
	case RecIndexDelete:
		return "IDX-DELETE"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one write-ahead log record.
type Record struct {
	LSN      uint64
	TxnID    uint64
	Type     RecordType
	PageID   uint64
	Slot     uint16
	Offset   uint16 // tuple-relative offset for updates
	ObjectID uint32 // owning table (inserts/deletes) or index (index records)
	Key      int64  // indexed key (index records) or commit timestamp (RecCommit)
	Old      []byte // before image (undo)
	New      []byte // after image (redo)
}

// CommitTS returns the MVCC commit timestamp carried by a RecCommit
// record (0 for other record types).
func (r Record) CommitTS() uint64 {
	if r.Type != RecCommit {
		return 0
	}
	return uint64(r.Key)
}

// MaxCommitTS returns the highest commit timestamp among the given
// records — recovery restarts the timestamp oracle past it.
func MaxCommitTS(records []Record) uint64 {
	var max uint64
	for _, r := range records {
		if ts := r.CommitTS(); ts > max {
			max = ts
		}
	}
	return max
}

// headerSize is the fixed size of a record before its images: LSN (8),
// TxnID (8), Type (1), PageID (8), Slot (2), Offset (2), ObjectID (4), Key
// (8) and the lengths of Old and New (4 each).
const headerSize = 8 + 8 + 1 + 8 + 2 + 2 + 4 + 8 + 4 + 4

// EncodedSize returns the size of the record in the log's byte accounting:
// the fixed header followed by the Old and New images.
func (r Record) EncodedSize() int { return headerSize + len(r.Old) + len(r.New) }

// commitWaiter is one follower waiting for the log to become durable up to
// its LSN. Followers queue up while a flush is in flight; its leader wakes
// the ones its write covered, and hands the lead to the first of the rest.
// A caller that finds no flush in flight has no waiter object: it leads at
// once. commit marks transaction commits (counted in the group-commit batch
// statistics) as opposed to stand-alone Flush callers.
type commitWaiter struct {
	lsn    uint64
	commit bool
	done   chan struct{}
	err    error // set before done is closed when the log-device write failed
	lead   bool  // set before done is closed: not served — lead the next batch
}

// GroupCommitStats describes the log's flushes: how many bytes they made
// durable and how effectively concurrent commits were batched into them.
// The log's own value is its live counter set, kept under the log mutex.
type GroupCommitStats struct {
	// WALBytes is the number of log bytes made durable.
	WALBytes uint64
	// WALFlushes is the number of physical log flushes.
	WALFlushes uint64
	// WALFlushedCommits is the number of commit requests those flushes
	// served; WALFlushedCommits / WALFlushes is the average group-commit
	// batch size.
	WALFlushedCommits uint64
	// WALMaxCommitBatch is the largest number of commits served by one
	// flush.
	WALMaxCommitBatch uint64 `stat:"max"`
}

// DefaultSegmentBytes is the seal threshold of a log segment: once the
// active tail accumulates this many encoded bytes it is sealed and a new
// tail (recycled from a previously truncated segment when possible) takes
// over. Checkpoint truncation drops whole sealed segments.
const DefaultSegmentBytes = 64 << 10

// segment is one run of consecutive log records. Only the last segment of
// a log accepts appends; earlier segments are sealed and immutable, which
// is what makes whole-segment truncation and array recycling safe.
//
// The Old and New images of a segment's records live in its arena. Whoever
// holds such a record — Txn.undo does — may read the images only until
// Truncate passes the record's LSN: a recycled arena is overwritten by the
// next tail. Everything that outlives a truncation (Records,
// DurableRecords) copies the images out.
type segment struct {
	records []Record
	arena   []byte // backing store of the records' images; the newest chunk if it had to grow
	bytes   int    // sum of EncodedSize over records
}

// keep copies an image into the arena and returns the copy. A full arena is
// not grown in place — records already stored alias it — but succeeded by a
// larger chunk; the old one stays reachable through those records until the
// segment is truncated, and the new one is what gets recycled.
func (s *segment) keep(img []byte) []byte {
	if len(img) == 0 {
		return nil
	}
	if len(s.arena)+len(img) > cap(s.arena) {
		s.arena = make([]byte, 0, max(2*cap(s.arena), len(img), 64))
	}
	n := len(s.arena)
	s.arena = append(s.arena, img...)
	return s.arena[n:len(s.arena):len(s.arena)]
}

// imageBytes returns the total length of the images of the segment's
// records.
func (s *segment) imageBytes() int { return s.bytes - headerSize*len(s.records) }

// bytesAbove sums the encoded size of the segment's records with an LSN
// above lsn.
func (s *segment) bytesAbove(lsn uint64) int {
	if s.firstLSN() > lsn {
		return s.bytes
	}
	n := 0
	for i := len(s.records) - 1; i >= 0 && s.records[i].LSN > lsn; i-- {
		n += s.records[i].EncodedSize()
	}
	return n
}

func (s *segment) firstLSN() uint64 {
	if len(s.records) == 0 {
		return 0
	}
	return s.records[0].LSN
}

func (s *segment) lastLSN() uint64 {
	if len(s.records) == 0 {
		return 0
	}
	return s.records[len(s.records)-1].LSN
}

// Log is an in-memory write-ahead log with byte accounting and a
// group-commit pipeline: concurrently-arriving commit flushes are batched
// into a single log append, amortising the latency of the separate log
// device the paper's experimental setup assumes. Records are stored in
// sealed segments plus one active tail so checkpoint truncation is O(1)
// per dropped segment rather than a full-log rewrite.
type Log struct {
	mu           sync.Mutex
	segs         []*segment // LSN order; the last segment is the active tail
	segBytes     int
	free         []*segment // truncated segments, emptied, awaiting reuse as tails
	liveBytes    uint64
	unflushed    int    // encoded size of the retained records above flushedLSN
	truncatedLSN uint64 // highest LSN discarded by Truncate
	flushedLSN   uint64
	nextLSN      atomic.Uint64 // written under mu, read without it by NextLSN

	// Group-commit state: followers queue while a leader's flush is in
	// flight (flushing); each leader takes the whole queue as its batch.
	waiters  []*commitWaiter
	flushing bool
	gcStats  GroupCommitStats

	// flushHook, if set, models the log-device write: it is called once
	// per flush batch (outside the log mutex) with the number of bytes
	// made durable. Group commit pays this cost once per batch instead of
	// once per transaction. A hook error means the write never reached
	// the log device (e.g. an injected power cut): the batch does not
	// become durable and every waiter riding it receives the error.
	flushHook func(bytes int) error
}

// New creates an empty log. LSNs start at 1.
func New() *Log {
	l := &Log{segBytes: DefaultSegmentBytes, segs: []*segment{{}}}
	l.nextLSN.Store(1)
	return l
}

// NewFromRecords creates a log pre-loaded with the records that survived a
// crash (the durable prefix of a previous log, in LSN order). New appends
// continue after the highest surviving LSN. The images are copied: the new
// log does not alias records.
func NewFromRecords(records []Record, flushedLSN uint64) *Log {
	l := New()
	l.flushedLSN = flushedLSN
	for i := range records {
		r := &records[i]
		l.appendLocked(r)
		if r.LSN >= l.nextLSN.Load() {
			l.nextLSN.Store(r.LSN + 1)
		}
	}
	if flushedLSN >= l.nextLSN.Load() {
		l.nextLSN.Store(flushedLSN + 1)
	}
	if len(records) > 0 {
		l.truncatedLSN = records[0].LSN - 1
	}
	return l
}

// SetFlushHook installs fn as the simulated log-device write, invoked once
// per flush batch with the flushed byte count. It must be set before the
// log is shared between goroutines.
func (l *Log) SetFlushHook(fn func(bytes int) error) { l.flushHook = fn }

// SetSegmentBytes overrides the segment seal threshold (tests use small
// segments to exercise truncation). It must be called before the log is
// shared between goroutines.
func (l *Log) SetSegmentBytes(n int) {
	if n <= 0 {
		n = DefaultSegmentBytes
	}
	l.mu.Lock()
	l.segBytes = n
	l.mu.Unlock()
}

// sealLocked closes the active tail and opens a fresh one: a truncated
// segment when one is available, else arrays sized like the tail being
// sealed plus headroom — the next segment will hold much the same record
// mix, so it fills without regrowing.
func (l *Log) sealLocked() {
	var s *segment
	if n := len(l.free); n > 0 {
		s, l.free[n-1] = l.free[n-1], nil
		l.free = l.free[:n-1]
	} else {
		last := l.segs[len(l.segs)-1]
		recs, img := len(last.records), last.imageBytes()
		s = &segment{records: make([]Record, 0, recs+recs/8+8), arena: make([]byte, 0, img+img/8+64)}
	}
	l.segs = append(l.segs, s)
}

// appendLocked appends a record (which already carries its LSN) to the
// tail segment, copying its images into the segment's arena, and seals the
// tail when it is full. It returns the record as stored.
func (l *Log) appendLocked(r *Record) *Record {
	tail := l.segs[len(l.segs)-1]
	// Built field by field rather than by copying *r and patching the
	// images: escape analysis follows variables, not assignments, and would
	// otherwise conclude that the caller's image buffers reach the heap,
	// moving them there.
	tail.records = append(tail.records, Record{
		LSN: r.LSN, TxnID: r.TxnID, Type: r.Type, PageID: r.PageID, Slot: r.Slot,
		Offset: r.Offset, ObjectID: r.ObjectID, Key: r.Key,
		Old: tail.keep(r.Old), New: tail.keep(r.New),
	})
	stored := &tail.records[len(tail.records)-1]
	sz := stored.EncodedSize()
	tail.bytes += sz
	l.liveBytes += uint64(sz)
	if stored.LSN > l.flushedLSN {
		l.unflushed += sz
	}
	if tail.bytes >= l.segBytes {
		l.sealLocked()
	}
	return stored
}

// Append adds a record and returns its LSN. The images are copied: the
// caller keeps ownership of r.Old and r.New.
func (l *Log) Append(r Record) uint64 {
	l.AppendRef(&r)
	return r.LSN
}

// AppendRef is Append setting r.LSN and returning the record the log
// stores, its images the log's own copy. Record and images stay valid until
// Truncate passes the record's LSN (a segment array that regrows leaves the
// old one as it is, kept alive by such pointers) and must not be modified.
// A transaction's undo list holds such records; the active-transaction
// table keeps the truncation cut below them.
func (l *Log) AppendRef(r *Record) *Record {
	l.mu.Lock()
	stored := l.appendNextLocked(r)
	l.mu.Unlock()
	return stored
}

// appendNextLocked is appendLocked giving r the next LSN first.
func (l *Log) appendNextLocked(r *Record) *Record {
	r.LSN = l.nextLSN.Load()
	l.nextLSN.Store(r.LSN + 1)
	return l.appendLocked(r)
}

// AppendCommit is Append of a transaction's commit record r followed by
// CommitFlush of it, in one critical section: the flush starts without
// letting go of the log mutex the append took.
func (l *Log) AppendCommit(r Record) error { return l.flush(&r, 0, true) }

// bytesAboveLocked sums the encoded size of the retained records with an
// LSN above lsn, walking back from the tail: O(records above lsn), and
// O(1) when lsn is the last appended LSN. The caller holds the log mutex.
func (l *Log) bytesAboveLocked(lsn uint64) int {
	n := 0
	for i := len(l.segs) - 1; i >= 0; i-- {
		s := l.segs[i]
		if len(s.records) == 0 {
			continue
		}
		if s.lastLSN() <= lsn {
			break
		}
		n += s.bytesAbove(lsn)
	}
	return n
}

// pendingBytesLocked returns the encoded size of the retained records in
// (flushedLSN, upTo], for upTo >= flushedLSN: the running count of
// unflushed bytes less whatever was appended past upTo. A commit flushes up
// to the record it just appended, so the usual answer is the running count
// itself. The caller holds the log mutex.
func (l *Log) pendingBytesLocked(upTo uint64) int {
	return l.unflushed - l.bytesAboveLocked(upTo)
}

// clampLocked resolves upTo == 0 / out-of-range to the last appended LSN.
func (l *Log) clampLocked(upTo uint64) uint64 {
	if next := l.nextLSN.Load(); upTo == 0 || upTo >= next {
		return next - 1
	}
	return upTo
}

// Flush makes all appended records durable up to the given LSN (or all
// records if upTo is zero) and accounts the flushed bytes. It is the
// stand-alone flush used by checkpoints, the eviction write-ahead barrier
// and recovery tests; transaction commits go through CommitFlush. Both
// share one flush pipeline, so concurrent callers never account the same
// records twice. A non-nil error means the log device failed (power cut)
// and the records are NOT durable.
func (l *Log) Flush(upTo uint64) error { return l.flush(nil, upTo, false) }

// CommitFlush makes the log durable at least up to lsn, batching
// concurrently-arriving commits into one flush. The first caller becomes
// the leader and writes the log device on behalf of every transaction that
// queued up in the meantime (followers merely wait); each additional
// follower rides along for free, which is exactly how a DBMS amortises
// the latency of a dedicated log device. An error means the commit record
// never became durable: the transaction must be treated as rolled back.
func (l *Log) CommitFlush(lsn uint64) error { return l.flush(nil, lsn, true) }

// flush is the shared leader/follower pipeline behind Flush, CommitFlush
// and AppendCommit, whose record r it appends first, under the same lock.
// Only commit callers count towards the group-commit batch statistics.
//
// A caller that finds no flush in flight leads: no waiter object, no
// channel, no queue slot, so an uncontended flush allocates nothing.
// Callers arriving while a leader is inside the hook queue as followers. A
// leader writes one batch — itself and everyone queued behind it — wakes
// the followers the write covered and returns; if others queued meanwhile,
// the first of them leads next. A leader never stays on to serve later
// batches: its caller's commit timestamp is pending until it returns, and
// every later commit waits for that timestamp to become visible. Without a
// flush hook nobody ever queues: the leader's flush never lets go of the
// mutex.
func (l *Log) flush(r *Record, lsn uint64, commit bool) error {
	l.mu.Lock()
	if r != nil {
		lsn = l.appendNextLocked(r).LSN
	}
	lsn = l.clampLocked(lsn)
	if lsn <= l.flushedLSN {
		// An earlier flush (a write-ahead barrier, or a leader whose range
		// reached past this record) already made it durable: the commit was
		// served by that flush and counts towards the batch statistics.
		if commit {
			l.gcStats.WALFlushedCommits++
		}
		l.mu.Unlock()
		return nil
	}
	if l.flushing {
		// A leader is writing the log device: its write, or a later
		// leader's, covers this record — unless the lead comes round to
		// this caller first.
		w := &commitWaiter{lsn: lsn, commit: commit, done: make(chan struct{})}
		l.waiters = append(l.waiters, w)
		l.mu.Unlock()
		<-w.done
		if !w.lead {
			return w.err
		}
		l.mu.Lock()
	}
	batch := l.waiters
	l.waiters = nil
	target, commits := lsn, uint64(0)
	if commit {
		commits = 1
	}
	for _, bw := range batch {
		if bw.lsn > target {
			target = bw.lsn
		}
		if bw.commit {
			commits++
		}
	}
	bytes := l.pendingBytesLocked(target)
	var err error
	if hook := l.flushHook; hook != nil {
		// One log-device write for the whole batch. New callers arriving
		// during this write queue behind l.flushing and join the next batch.
		l.flushing = true
		l.mu.Unlock()
		err = hook(bytes)
		l.mu.Lock()
	}
	if err == nil {
		l.gcStats.WALBytes += uint64(bytes)
		if target > l.flushedLSN {
			l.flushedLSN = target
			// Recounted rather than decremented by bytes: a Truncate
			// during the write may already have taken some of them out.
			l.unflushed = l.bytesAboveLocked(target)
		}
	} else {
		// The write never reached the log device: the whole batch is lost.
		// Every waiter learns its records are not durable.
		for _, bw := range batch {
			bw.err = err
		}
	}
	// Waiters that queued during the write but whose records were already
	// covered by it (their LSN is at or below flushedLSN) are served now
	// instead of triggering a redundant zero-byte device write.
	pending := l.waiters[:0]
	for _, bw := range l.waiters {
		if bw.lsn <= l.flushedLSN {
			if bw.commit {
				commits++
			}
			batch = append(batch, bw)
		} else {
			pending = append(pending, bw)
		}
	}
	l.waiters = pending
	if err == nil {
		l.gcStats.WALFlushes++
		l.gcStats.WALFlushedCommits += commits
		l.gcStats.WALMaxCommitBatch = max(l.gcStats.WALMaxCommitBatch, commits)
	}
	for _, bw := range batch {
		close(bw.done)
	}
	if len(l.waiters) == 0 {
		l.flushing = false
	} else {
		// Hand over: l.flushing stays set, so arrivals keep queueing until
		// the next leader has taken the lock and the queue with it.
		next := l.waiters[0]
		l.waiters = l.waiters[:copy(l.waiters, l.waiters[1:])]
		next.lead = true
		close(next.done)
	}
	l.mu.Unlock()
	return err
}

// GroupCommitStats returns a snapshot of the group-commit counters.
func (l *Log) GroupCommitStats() GroupCommitStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gcStats
}

// FlushedLSN returns the highest durable LSN.
func (l *Log) FlushedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushedLSN
}

// NextLSN returns the LSN the next appended record will receive, without
// the log mutex: racing an append it may be that append's LSN, a lower
// bound, which is what every caller wants (first LSN, recLSN, begin LSN).
func (l *Log) NextLSN() uint64 { return l.nextLSN.Load() }

// BytesWritten returns the number of log bytes made durable so far.
func (l *Log) BytesWritten() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gcStats.WALBytes
}

// LiveBytes returns the encoded size of all records currently retained by
// the log — the volume recovery would have to replay. Checkpoint
// truncation is what keeps it bounded.
func (l *Log) LiveBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.liveBytes
}

// Segments returns the number of live segments (sealed plus the active
// tail).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// TruncatedLSN returns the highest LSN discarded by Truncate (0 when the
// log still reaches back to LSN 1). Recovery must start strictly above it.
func (l *Log) TruncatedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncatedLSN
}

// DurableRecords returns a copy of the records that have been made durable
// (LSN at or below the flushed LSN), in LSN order. This is exactly what a
// crash preserves: records still in the volatile log buffer are gone.
func (l *Log) DurableRecords() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.copyRecordsLocked(l.flushedLSN)
}

// Records returns a copy of all retained records in LSN order.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.copyRecordsLocked(l.nextLSN.Load())
}

// copyRecordsLocked returns the retained records with LSN <= upTo. The
// copy is deep — the images move into one buffer of their own — because
// the caller keeps it across truncations that recycle the arenas.
func (l *Log) copyRecordsLocked(upTo uint64) []Record {
	n, img := 0, 0
	for _, s := range l.segs {
		for _, r := range s.records {
			if r.LSN > upTo {
				break // LSN order: nothing after it qualifies, in this segment or a later one
			}
			n, img = n+1, img+len(r.Old)+len(r.New)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	images := segment{arena: make([]byte, 0, img)}
	for _, s := range l.segs {
		for _, r := range s.records {
			if len(out) == n {
				return out
			}
			r.Old, r.New = images.keep(r.Old), images.keep(r.New)
			out = append(out, r)
		}
	}
	return out
}

// Truncate discards whole segments whose records all have LSN <= upTo
// (checkpointing: upTo is the cut below the oldest undo any recovery could
// need). Truncation is segment-granular — a segment straddling the cut is
// retained in full, which is safe because replay is idempotent — and O(1)
// per dropped segment. Dropped segments are emptied and kept as future
// tails, as many of them as this call dropped: the log consumed that many
// since the last truncation and will again before the next.
func (l *Log) Truncate(upTo uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tail := l.segs[len(l.segs)-1]; len(tail.records) > 0 && tail.lastLSN() <= upTo {
		l.sealLocked()
	}
	dropped := 0
	for ; dropped < len(l.segs)-1; dropped++ {
		s := l.segs[dropped]
		if len(s.records) == 0 || s.lastLSN() > upTo {
			break
		}
		l.truncatedLSN = s.lastLSN()
		l.liveBytes -= uint64(s.bytes)
		l.unflushed -= s.bytesAbove(l.flushedLSN)
		s.records, s.arena, s.bytes = s.records[:0], s.arena[:0], 0
		l.free = append(l.free, s)
	}
	if dropped == 0 {
		return
	}
	// Shift down instead of re-slicing from the front, which would keep
	// the dropped segments reachable through the array's dead prefix.
	n := copy(l.segs, l.segs[dropped:])
	clear(l.segs[n:])
	l.segs = l.segs[:n]
	if len(l.free) > dropped {
		clear(l.free[dropped:])
		l.free = l.free[:dropped]
	}
}

// Analysis is the result of scanning the log during recovery.
type Analysis struct {
	Committed map[uint64]bool // transactions with a COMMIT record
	Aborted   map[uint64]bool
	Losers    map[uint64]bool // transactions without COMMIT/ABORT
}

// Analyze performs the analysis pass of recovery.
func (l *Log) Analyze() Analysis {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := Analysis{
		Committed: make(map[uint64]bool),
		Aborted:   make(map[uint64]bool),
		Losers:    make(map[uint64]bool),
	}
	for _, s := range l.segs {
		for _, r := range s.records {
			switch r.Type {
			case RecCommit:
				a.Committed[r.TxnID] = true
				delete(a.Losers, r.TxnID)
			case RecAbort:
				a.Aborted[r.TxnID] = true
				delete(a.Losers, r.TxnID)
			case RecCheckpoint:
			default:
				if !a.Committed[r.TxnID] && !a.Aborted[r.TxnID] {
					a.Losers[r.TxnID] = true
				}
			}
		}
	}
	return a
}

// Action says what an Applier does with a record.
type Action uint8

const (
	// Redo repeats history: the record's effect is installed as logged.
	Redo Action = iota
	// Undo rolls the record back: a live transaction's Abort, and recovery's
	// reverse pass over the losers.
	Undo
	// Compensate rolls back the flushed residue of a transaction that aborted
	// before the crash, during the forward pass. It differs from Undo for
	// RecUpdate only: the before image is installed only while the bytes
	// still equal the after image, because a page flushed after the
	// in-memory rollback, or rewritten by a later committed transaction,
	// already carries the right bytes. That condition is also what keeps
	// replay correct when checkpoint truncation removed part of the
	// transaction's records — whatever survives is safe to re-apply.
	Compensate
)

// String names the action for error messages.
func (a Action) String() string {
	return [...]string{"redo", "undo", "compensate"}[a]
}

// Applier turns a log record into page and index writes. Every (record
// type, action) pair must be idempotent, and — a freshly inserted tuple's
// Redo aside, which recreates its page — a no-op on a page that never
// reached Flash.
type Applier interface {
	Apply(r *Record, a Action) error
}

// Apply applies one record and names the action, record and LSN in the
// error of a failed one.
func Apply(ap Applier, r *Record, a Action) error {
	if err := ap.Apply(r, a); err != nil {
		return fmt.Errorf("wal: %s %s LSN %d: %w", a, r.Type, r.LSN, err)
	}
	return nil
}

// ValueOf decodes the packed RID carried in an index record image.
func ValueOf(image []byte) uint64 {
	if len(image) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(image)
}

// ValueImage encodes a packed RID as the 8-byte image of an index record.
// It returns an array so the caller can log a slice of it without
// allocating (Append copies the image).
func ValueImage(value uint64) (img [8]byte) {
	binary.LittleEndian.PutUint64(img[:], value)
	return img
}

// undoRecords runs the final reverse pass: losers' updates, deletes and
// index deletes are rolled back, and inserts (heap and index) of both
// losers and pre-crash-aborted transactions are removed — their rollback
// happened only in the buffer pool, so the flushed Flash image may still
// carry the entry as live. Insert removal is conditional on the slot or
// mapping, so a later committed writer is never clobbered. It returns the
// number of undo operations issued.
func undoRecords(recs []Record, a Analysis, ap Applier) (int, error) {
	n := 0
	for i := len(recs) - 1; i >= 0; i-- {
		r := &recs[i]
		switch r.Type {
		case RecInsert, RecIndexInsert:
			if !a.Losers[r.TxnID] && !a.Aborted[r.TxnID] {
				continue
			}
		case RecUpdate, RecDelete, RecIndexDelete:
			if !a.Losers[r.TxnID] {
				continue
			}
		default:
			continue
		}
		n++
		if err := Apply(ap, r, Undo); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Replay performs crash recovery over the retained records, on the
// calling goroutine: a forward "repeat history" pass re-applies committed
// work in LSN order and rolls back each pre-crash-aborted transaction's
// updates, deletes and index deletes at its RecAbort position, in reverse
// record order, via conditional compensation — just as the original
// rollback ran. Aborted inserts and index inserts are NOT compensated
// there: a slot or entry belongs to exactly one insert ever, so the final
// reverse pass removes them alongside the losers' work.
//
// cut is the last checkpoint's truncation LSN (0 = replay everything):
// records at or below it are skipped even when they physically survive —
// segment recycling only drops whole leading segments, so the tail
// segment usually still carries pre-checkpoint records. Skipping is safe
// because the checkpoint force-flushed every page those records touched
// before it became durable, and the cut sits below the first LSN of every
// transaction that was still active, so no loser or pending abort loses
// records to it.
//
// It returns the number of redo, compensation and undo operations issued,
// which is O(records since the last checkpoint) — the restart-cost metric.
func (l *Log) Replay(a Analysis, ap Applier, cut uint64) (int, error) {
	recs := l.Records()
	// Records are in LSN order: drop the pre-checkpoint prefix.
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].LSN > cut })
	recs = recs[lo:]
	n := 0
	pending := make(map[uint64][]*Record)
	for i := range recs {
		r := &recs[i]
		switch {
		case a.Committed[r.TxnID]:
			switch r.Type {
			case RecUpdate, RecInsert, RecDelete, RecIndexInsert, RecIndexDelete:
				n++
				if err := Apply(ap, r, Redo); err != nil {
					return n, err
				}
			}
		case a.Aborted[r.TxnID]:
			switch r.Type {
			case RecUpdate, RecDelete, RecIndexDelete:
				pending[r.TxnID] = append(pending[r.TxnID], r)
			case RecAbort:
				undo := pending[r.TxnID]
				for j := len(undo) - 1; j >= 0; j-- {
					n++
					if err := Apply(ap, undo[j], Compensate); err != nil {
						return n, err
					}
				}
				delete(pending, r.TxnID)
			}
		}
	}
	undone, err := undoRecords(recs, a, ap)
	return n + undone, err
}
