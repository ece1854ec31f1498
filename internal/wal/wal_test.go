package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	l := New()
	var last uint64
	for i := 0; i < 10; i++ {
		lsn := l.Append(Record{TxnID: 1, Type: RecUpdate})
		if lsn <= last {
			t.Fatalf("LSNs must be strictly increasing: %d after %d", lsn, last)
		}
		last = lsn
	}
	if l.NextLSN() != last+1 {
		t.Fatalf("NextLSN = %d, want %d", l.NextLSN(), last+1)
	}
}

func TestFlushAccountsBytes(t *testing.T) {
	l := New()
	r1 := Record{TxnID: 1, Type: RecUpdate, Old: []byte{1}, New: []byte{2}}
	r2 := Record{TxnID: 1, Type: RecCommit}
	l.Append(r1)
	lsn2 := l.Append(r2)
	if l.BytesWritten() != 0 {
		t.Fatalf("nothing flushed yet")
	}
	l.Flush(lsn2)
	want := uint64(r1.EncodedSize() + r2.EncodedSize())
	if l.BytesWritten() != want {
		t.Fatalf("BytesWritten = %d, want %d", l.BytesWritten(), want)
	}
	if l.FlushedLSN() != lsn2 {
		t.Fatalf("FlushedLSN = %d", l.FlushedLSN())
	}
	// Flushing again must not double count.
	l.Flush(0)
	if l.BytesWritten() != want {
		t.Fatalf("double flush double counted")
	}
}

func TestAnalyze(t *testing.T) {
	l := New()
	l.Append(Record{TxnID: 1, Type: RecUpdate})
	l.Append(Record{TxnID: 1, Type: RecCommit})
	l.Append(Record{TxnID: 2, Type: RecUpdate})
	l.Append(Record{TxnID: 3, Type: RecUpdate})
	l.Append(Record{TxnID: 3, Type: RecAbort})
	a := l.Analyze()
	if !a.Committed[1] || a.Losers[1] {
		t.Errorf("txn 1 must be committed")
	}
	if !a.Losers[2] {
		t.Errorf("txn 2 must be a loser")
	}
	if !a.Aborted[3] || a.Losers[3] {
		t.Errorf("txn 3 must be aborted and not a loser")
	}
}

// applier records redo/undo applications in memory.
type applier struct {
	pages map[uint64][]byte
}

func newApplier() *applier { return &applier{pages: make(map[uint64][]byte)} }

// Apply keeps one 64-byte image per page: an update patches it (a
// compensation only where the bytes still hold the after image), an insert
// or a restored delete writes its tuple at offset 0, a delete or a removed
// insert drops the page. Index records change nothing.
func (a *applier) Apply(r *Record, act Action) error {
	p, image := a.pages[r.PageID], r.Old
	switch {
	case r.Type == RecIndexInsert || r.Type == RecIndexDelete:
		return nil
	case r.Type == RecInsert && act != Redo, r.Type == RecDelete && act == Redo:
		delete(a.pages, r.PageID)
		return nil
	case act == Redo:
		image = r.New
	case act == Compensate && r.Type == RecUpdate:
		if p == nil || !bytes.Equal(p[r.Offset:int(r.Offset)+len(r.New)], r.New) {
			return nil
		}
	}
	if p == nil {
		p = make([]byte, 64)
		a.pages[r.PageID] = p
	}
	copy(p[r.Offset:], image)
	return nil
}

// TestReplayRedoAndLoserUndo replays a log into an empty applier and
// compares the operation count and every page's first eight bytes (the
// rest stay zero) with values worked out by hand.
func TestReplayRedoAndLoserUndo(t *testing.T) {
	cases := []struct {
		name  string
		build func(l *Log)
		ops   int
		pages map[uint64][8]byte
	}{{
		name: "committed and loser",
		build: func(l *Log) {
			// Txn 1 commits 0xAA at offset 0 of page 1; loser txn 2 writes
			// 0xBB at offset 1, whose before image 0x11 undo restores.
			l.Append(Record{TxnID: 1, Type: RecUpdate, PageID: 1, Offset: 0, Old: []byte{0x00}, New: []byte{0xAA}})
			l.Append(Record{TxnID: 1, Type: RecCommit})
			l.Append(Record{TxnID: 2, Type: RecUpdate, PageID: 1, Offset: 1, Old: []byte{0x11}, New: []byte{0xBB}})
		},
		ops:   2, // one committed redo + one loser undo
		pages: map[uint64][8]byte{1: {0xAA, 0x11}},
	}, {
		// Record i (0..39) of txn 100+i%5 updates byte i%8 of page i%7
		// from i to i+1, and every third also inserts into index object
		// 2 or 3. Txns 100 and 101 commit, 102 aborts, 103 and 104 are
		// losers. i < 56 touches a distinct byte, so byte i%8 of page i%7
		// ends as i+1 (committed), i (loser undone) or 0 (aborted:
		// compensation finds no residue; or untouched).
		name: "interleaved",
		build: func(l *Log) {
			for i := 0; i < 40; i++ {
				pid := uint64(i % 7)
				txn := uint64(100 + i%5)
				l.Append(Record{TxnID: txn, Type: RecUpdate, PageID: pid, Offset: uint16(i % 8), Old: []byte{byte(i)}, New: []byte{byte(i + 1)}})
				if i%3 == 0 {
					img := ValueImage(uint64(i))
					l.Append(Record{TxnID: txn, Type: RecIndexInsert, ObjectID: uint32(2 + i%2), Key: int64(i), New: img[:]})
				}
			}
			l.Append(Record{TxnID: 100, Type: RecCommit})
			l.Append(Record{TxnID: 101, Type: RecCommit})
			l.Append(Record{TxnID: 102, Type: RecAbort})
		},
		// Redo: 16 committed updates + 6 index inserts. Compensate: 8
		// aborted updates. Undo: 16 loser updates + 6 loser and 2 aborted
		// index inserts.
		ops: 22 + 8 + 24,
		pages: map[uint64][8]byte{
			0: {1, 0, 0, 36, 28, 22, 14, 0},
			1: {8, 2, 0, 0, 37, 29, 0, 16},
			2: {17, 9, 0, 0, 0, 0, 31, 23},
			3: {24, 0, 11, 3, 0, 0, 38, 32},
			4: {0, 26, 18, 12, 4, 0, 0, 39},
			5: {0, 33, 27, 19, 0, 6, 0, 0},
			6: {0, 0, 34, 0, 21, 13, 7, 0},
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := New()
			c.build(l)
			ap := newApplier()
			n, err := l.Replay(l.Analyze(), ap, 0)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if n != c.ops {
				t.Fatalf("Replay issued %d ops, want %d", n, c.ops)
			}
			if len(ap.pages) != len(c.pages) {
				t.Fatalf("replay left %d pages, want %d", len(ap.pages), len(c.pages))
			}
			for pid, head := range c.pages {
				want := make([]byte, 64)
				copy(want, head[:])
				if got := ap.pages[pid]; !bytes.Equal(got, want) {
					t.Fatalf("page %d = %v, want %v", pid, got, want)
				}
			}
		})
	}
}

func TestReplayCompensatesAbortedResidue(t *testing.T) {
	l := New()
	// Aborted transaction's update residue reached "flash": the applier
	// page carries the after image, but the abort happened before the
	// crash, so replay must roll it back at the RecAbort position.
	l.Append(Record{TxnID: 5, Type: RecUpdate, PageID: 3, Offset: 0, Old: []byte{0x01}, New: []byte{0x99}})
	l.Append(Record{TxnID: 5, Type: RecAbort})

	a := l.Analyze()
	ap := newApplier()
	ap.pages[3] = make([]byte, 64)
	ap.pages[3][0] = 0x99 // flushed residue of the aborted update
	if _, err := l.Replay(a, ap, 0); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if ap.pages[3][0] != 0x01 {
		t.Fatalf("compensation did not restore the before image: %#x", ap.pages[3][0])
	}

	// When the page does NOT carry the residue (the rollback was flushed,
	// or a later committed write replaced the bytes), compensation must
	// leave it alone.
	ap2 := newApplier()
	ap2.pages[3] = make([]byte, 64)
	ap2.pages[3][0] = 0x42
	if _, err := l.Replay(a, ap2, 0); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if ap2.pages[3][0] != 0x42 {
		t.Fatalf("conditional compensation clobbered unrelated bytes: %#x", ap2.pages[3][0])
	}
}

func TestSegmentsSealTruncateAndRecycle(t *testing.T) {
	l := New()
	l.SetSegmentBytes(200) // a few records per segment
	var lsns []uint64
	for i := 0; i < 40; i++ {
		lsns = append(lsns, l.Append(Record{TxnID: 1, Type: RecUpdate, PageID: uint64(i), Old: []byte{1}, New: []byte{2}}))
	}
	if l.Segments() < 3 {
		t.Fatalf("expected several sealed segments, got %d", l.Segments())
	}
	before := l.LiveBytes()
	if before == 0 {
		t.Fatalf("LiveBytes must account appended records")
	}
	l.Flush(0)
	cut := lsns[20]
	l.Truncate(cut)
	if got := l.TruncatedLSN(); got == 0 || got > cut {
		t.Fatalf("TruncatedLSN = %d, want (0, %d]", got, cut)
	}
	if l.LiveBytes() >= before {
		t.Fatalf("truncation did not shrink LiveBytes: %d -> %d", before, l.LiveBytes())
	}
	recs := l.Records()
	if len(recs) == 0 {
		t.Fatalf("truncation dropped the whole log")
	}
	if first := recs[0].LSN; first != l.TruncatedLSN()+1 {
		t.Fatalf("records must restart right above the truncated LSN: first %d, truncated %d", first, l.TruncatedLSN())
	}
	// Appends after truncation continue with fresh LSNs and reuse
	// recycled segment arrays.
	segsBefore := l.Segments()
	lsn := l.Append(Record{TxnID: 2, Type: RecCommit})
	if lsn != lsns[len(lsns)-1]+1 {
		t.Fatalf("LSN sequence broken after truncation: %d", lsn)
	}
	if l.Segments() > segsBefore+1 {
		t.Fatalf("append after truncation grew segments unexpectedly")
	}
	// DurableRecords still honours flushedLSN across segments.
	if got := l.DurableRecords(); got[len(got)-1].LSN != lsns[len(lsns)-1] {
		t.Fatalf("DurableRecords lost the flushed suffix")
	}
}

func TestTruncateEverything(t *testing.T) {
	l := New()
	l.Append(Record{TxnID: 1, Type: RecUpdate})
	l.Append(Record{TxnID: 2, Type: RecUpdate})
	lsn := l.Append(Record{TxnID: 1, Type: RecCommit})
	l.Truncate(lsn)
	if len(l.Records()) != 0 {
		t.Fatalf("Truncate left %d records", len(l.Records()))
	}
}

func TestRecordTypeString(t *testing.T) {
	types := []RecordType{RecUpdate, RecInsert, RecDelete, RecCommit, RecAbort, RecCheckpoint, RecordType(99)}
	for _, ty := range types {
		if ty.String() == "" {
			t.Errorf("empty name for %d", ty)
		}
	}
}

// walkPendingBytes is the definition pendingBytesLocked's running count
// must agree with, flush by flush: the encoded size of every retained
// record in (flushedLSN, upTo], found by walking the segments.
func walkPendingBytes(l *Log, upTo uint64) int {
	bytes := 0
	for _, s := range l.segs {
		for _, r := range s.records {
			if r.LSN > l.flushedLSN && r.LSN <= upTo {
				bytes += r.EncodedSize()
			}
		}
	}
	return bytes
}

// TestRunningPendingBytesMatchesSegmentWalk drives a random sequence of
// appends, partial and full flushes, failed flushes and truncations —
// including truncations that drop records nobody flushed, between flushes
// and in the middle of one — and after every step compares the running count with the walk, for the full range and for
// a random partial target. The flushed bytes are Stats.WALBytes and the
// checkpoint trigger, so "close" is not good enough.
func TestRunningPendingBytesMatchesSegmentWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		if seed%2 == 0 {
			// Every other round starts from a crash image: some records at
			// or below the flushed LSN, some above it.
			var recs []Record
			for lsn := uint64(5); lsn < 40; lsn++ {
				recs = append(recs, Record{LSN: lsn, TxnID: 1, Type: RecUpdate, New: make([]byte, rng.Intn(30))})
			}
			l = NewFromRecords(recs, uint64(rng.Intn(50)))
		}
		l.SetSegmentBytes(300)
		fail, cutDuringWrite := false, uint64(0)
		l.SetFlushHook(func(int) error {
			// The hook runs outside the log mutex, where a checkpoint on
			// another goroutine may truncate.
			l.Truncate(cutDuringWrite)
			if fail {
				return errors.New("power cut")
			}
			return nil
		})
		var wantWritten uint64
		check := func(step int, what string) {
			t.Helper()
			l.mu.Lock()
			defer l.mu.Unlock()
			last := l.NextLSN() - 1
			if got, want := l.unflushed, walkPendingBytes(l, last); got != want {
				t.Fatalf("seed %d step %d (%s): running count %d, walk %d", seed, step, what, got, want)
			}
			if last > l.flushedLSN {
				upTo := l.flushedLSN + uint64(rng.Int63n(int64(last-l.flushedLSN)+1))
				if got, want := l.pendingBytesLocked(upTo), walkPendingBytes(l, upTo); got != want {
					t.Fatalf("seed %d step %d (%s): pending(%d) = %d, walk %d", seed, step, what, upTo, got, want)
				}
			}
			if l.gcStats.WALBytes != wantWritten {
				t.Fatalf("seed %d step %d (%s): BytesWritten %d, want %d", seed, step, what, l.gcStats.WALBytes, wantWritten)
			}
		}
		check(0, "start")
		for step := 1; step <= 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				l.Append(Record{TxnID: 1, Type: RecUpdate, Old: make([]byte, rng.Intn(20)), New: make([]byte, rng.Intn(40))})
				check(step, "append")
			case op < 8:
				upTo := uint64(0)
				if rng.Intn(2) == 0 {
					upTo = uint64(rng.Int63n(int64(l.NextLSN())) + 1)
				}
				fail, cutDuringWrite = rng.Intn(5) == 0, 0
				if rng.Intn(4) == 0 {
					cutDuringWrite = uint64(rng.Int63n(int64(l.NextLSN()) + 1))
				}
				l.mu.Lock()
				target := l.clampLocked(upTo)
				pending, writes := walkPendingBytes(l, target), target > l.flushedLSN
				l.mu.Unlock()
				// Only a flush with something to make durable reaches the
				// device, and only that one can fail.
				if err := l.Flush(upTo); (err != nil) != (fail && writes) {
					t.Fatalf("seed %d step %d: Flush(%d) err = %v with fail = %v", seed, step, upTo, err, fail)
				} else if err == nil {
					wantWritten += uint64(pending)
				}
				check(step, "flush")
			default:
				l.Truncate(uint64(rng.Int63n(int64(l.NextLSN()) + 1)))
				check(step, "truncate")
			}
		}
	}
}

// TestRecordCopiesSurviveArenaRecycling: what Records and DurableRecords
// return outlives the log — a crash image is made of it — so the images
// must not live in a segment arena that Truncate hands to the next tail.
func TestRecordCopiesSurviveArenaRecycling(t *testing.T) {
	l := New()
	l.SetSegmentBytes(256)
	image := func(lsn uint64, old bool) []byte {
		b := byte(lsn)
		if old {
			b = ^b
		}
		return bytes.Repeat([]byte{b}, 1+int(lsn%7))
	}
	fill := func(n int) (last uint64) {
		for i := 0; i < n; i++ {
			lsn := l.NextLSN()
			last = l.Append(Record{TxnID: 1, Type: RecUpdate, Old: image(lsn, true), New: image(lsn, false)})
		}
		return last
	}
	last := fill(60)
	if err := l.Flush(last - 10); err != nil {
		t.Fatal(err)
	}
	all, durable := l.Records(), l.DurableRecords()
	if len(all) != 60 || len(durable) != 50 {
		t.Fatalf("%d records, %d durable; want 60 and 50", len(all), len(durable))
	}
	// Recycle every arena and write other bytes over them.
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	l.Truncate(last)
	if l.Segments() != 1 || len(l.free) == 0 {
		t.Fatalf("%d segments, %d recycled after truncating everything", l.Segments(), len(l.free))
	}
	fill(120)
	for _, recs := range [][]Record{all, durable} {
		for _, r := range recs {
			if !bytes.Equal(r.Old, image(r.LSN, true)) || !bytes.Equal(r.New, image(r.LSN, false)) {
				t.Fatalf("LSN %d: copy changed after its arena was recycled: old %x new %x", r.LSN, r.Old, r.New)
			}
		}
	}
}

// TestAppendCopiesImages: the caller may reuse its buffers the moment
// Append returns.
func TestAppendCopiesImages(t *testing.T) {
	l := New()
	buf := []byte{1, 2, 3, 4}
	stored := l.AppendRef(&Record{TxnID: 1, Type: RecUpdate, Old: buf[:2], New: buf[2:]})
	copy(buf, []byte{9, 9, 9, 9})
	if !bytes.Equal(stored.Old, []byte{1, 2}) || !bytes.Equal(stored.New, []byte{3, 4}) {
		t.Fatalf("stored record aliases the caller's buffer: %v %v", stored.Old, stored.New)
	}
	if r := l.Records()[0]; !bytes.Equal(r.Old, []byte{1, 2}) || !bytes.Equal(r.New, []byte{3, 4}) {
		t.Fatalf("logged record aliases the caller's buffer: %v %v", r.Old, r.New)
	}
}

// TestAppendRefSurvivesRegrowthAndSeals: the record AppendRef returns is
// the stored one and reads the same however the tail's array regrows and
// however many segments are sealed after it, as long as nothing truncates
// past it.
func TestAppendRefSurvivesRegrowthAndSeals(t *testing.T) {
	l := New()
	l.SetSegmentBytes(1 << 10)
	var refs []*Record
	for i := 0; i < 300; i++ {
		img := []byte{byte(i), byte(i >> 8)}
		refs = append(refs, l.AppendRef(&Record{TxnID: 1, Type: RecUpdate, Key: int64(i), Old: img, New: img}))
	}
	if l.Segments() < 4 {
		t.Fatalf("300 records fill %d segments, want several", l.Segments())
	}
	for i, r := range refs {
		img := []byte{byte(i), byte(i >> 8)}
		if r.LSN != uint64(i+1) || r.Key != int64(i) || !bytes.Equal(r.Old, img) || !bytes.Equal(r.New, img) {
			t.Fatalf("record %d reads LSN %d key %d images %x %x", i, r.LSN, r.Key, r.Old, r.New)
		}
	}
}

// TestSteadyAppendsDoNotRegrow: a new tail is sized from the one it
// succeeds and truncated segments come back as tails, so a log that is
// checkpointed at a steady interval stops allocating.
func TestSteadyAppendsDoNotRegrow(t *testing.T) {
	l := New()
	l.SetSegmentBytes(4 << 10)
	rec := Record{TxnID: 1, Type: RecUpdate, Old: make([]byte, 8), New: make([]byte, 8)}
	interval := func() {
		var lsn uint64
		for i := 0; i < 2000; i++ {
			lsn = l.Append(rec)
		}
		l.Flush(lsn)
		l.Truncate(lsn)
	}
	interval()
	interval() // the first interval's segments grew from nil; now they are recycled
	if allocs := testing.AllocsPerRun(5, interval); allocs != 0 {
		t.Fatalf("a steady checkpoint interval allocates %.0f times, want 0", allocs)
	}
}
