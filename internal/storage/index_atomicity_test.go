package storage

import (
	"testing"

	"ipa/internal/core"
	"ipa/internal/nand"
	"ipa/internal/page"
	"ipa/internal/region"
)

// TestIndexAppendSingleRecordOnly pins the atomicity rule the exhaustive
// power-cut sweep enforced: an index page may be persisted as an in-place
// append only when the residency's changes fit ONE delta record. A torn
// append of several concatenated records can persist a valid prefix — a
// byte-subset of one logical index operation — which logical index
// recovery (entries decoded from the page, keyed WAL records replayed)
// cannot repair: the half-rewritten entry decodes as a garbage key no log
// record names. Heap pages are exempt because their recovery replays
// exact byte images.
func TestIndexAppendSingleRecordOnly(t *testing.T) {
	scheme := core.Scheme{N: 4, M: 4}
	for _, kind := range []region.Kind{region.KindHeap, region.KindIndex} {
		m := testStack(t, WriteIPANative, scheme, nand.ModePSLC)
		m.cfg.Regions.Assign(1, region.Region{Name: "obj", Scheme: scheme, FlashMode: nand.ModePSLC, Kind: kind})
		pid, _, _ := newPage(t, m, 5)

		// One residency changing 8 contiguous tuple bytes: needs two 4-byte
		// delta records — within the page's N=4 budget, but not atomic.
		buf, tracker := reload(t, m, pid)
		pg, _ := page.Wrap(buf)
		pg.SetRecorder(tracker)
		if err := pg.UpdateTupleAt(1, 10, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			t.Fatalf("UpdateTupleAt: %v", err)
		}
		if err := m.StorePage(pid, buf, tracker); err != nil {
			t.Fatalf("StorePage: %v", err)
		}
		s := m.Stats()
		switch kind {
		case region.KindHeap:
			if s.IPAAppendEvictions != 1 || s.DeltaRecordsWritten != 2 {
				t.Fatalf("heap page: appends=%d records=%d, want a 2-record append", s.IPAAppendEvictions, s.DeltaRecordsWritten)
			}
		case region.KindIndex:
			if s.IndexDeltaRecords != 0 || s.IndexInPlaceAppends != 0 {
				t.Fatalf("index page: %d records appended across %d appends, want the multi-record append refused", s.IndexDeltaRecords, s.IndexInPlaceAppends)
			}
			if s.IndexOutOfPlaceWrites == 0 || s.AppendFallbacks == 0 {
				t.Fatalf("index page: expected an out-of-place fallback (oop=%d fallbacks=%d)", s.IndexOutOfPlaceWrites, s.AppendFallbacks)
			}
		}

		// A residency fitting one record still appends in place on both.
		buf, tracker = reload(t, m, pid)
		pg, _ = page.Wrap(buf)
		pg.SetRecorder(tracker)
		if err := pg.UpdateTupleAt(2, 20, []byte{9, 9}); err != nil {
			t.Fatalf("UpdateTupleAt: %v", err)
		}
		if err := m.StorePage(pid, buf, tracker); err != nil {
			t.Fatalf("StorePage: %v", err)
		}
		s = m.Stats()
		if kind == region.KindIndex && (s.IndexInPlaceAppends != 1 || s.IndexDeltaRecords != 1) {
			t.Fatalf("index page: single-record residency must append (appends=%d records=%d)", s.IndexInPlaceAppends, s.IndexDeltaRecords)
		}
	}
}
