package storage

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/flashdev"
	"ipa/internal/ftl"
	"ipa/internal/nand"
	"ipa/internal/page"
	"ipa/internal/region"
)

// testStack builds a device, FTL and storage manager for one write mode.
func testStack(t *testing.T, mode WriteMode, scheme core.Scheme, flashMode nand.Mode) *Manager {
	t.Helper()
	dev, err := flashdev.New(flashdev.Config{
		Chips: 1,
		Chip: nand.Config{
			Geometry:        nand.Geometry{Blocks: 32, PagesPerBlock: 16, PageSize: 2048, OOBSize: 128},
			Cell:            nand.MLC,
			StrictOverwrite: true,
			Seed:            2,
		},
		Latency: flashdev.DefaultLatencyModel(),
	})
	if err != nil {
		t.Fatalf("flashdev.New: %v", err)
	}
	eccCover := 2048
	if scheme.Enabled() {
		eccCover = 2048 - page.FooterSize - scheme.AreaSize(page.MetaSize)
	}
	f, err := ftl.New(dev, ftl.Config{
		FlashMode:     flashMode,
		InPlaceMerge:  mode == WriteIPASSD,
		EccCoverBytes: eccCover,
	})
	if err != nil {
		t.Fatalf("ftl.New: %v", err)
	}
	regions := region.NewManager(region.Region{Name: "default", Scheme: scheme, FlashMode: flashMode})
	m, err := New(f, Config{Mode: mode, Regions: regions, TraceEvictions: true})
	if err != nil {
		t.Fatalf("storage.New: %v", err)
	}
	return m
}

// newPage allocates, initialises and persists a fresh page with some tuples
// and returns its pid, buffer and tracker.
func newPage(t *testing.T, m *Manager, tuples int) (uint64, []byte, *core.Tracker) {
	t.Helper()
	pid, err := m.AllocatePage(1)
	if err != nil {
		t.Fatalf("AllocatePage: %v", err)
	}
	buf := make([]byte, m.PageSize())
	tracker := new(core.Tracker)
	if err := m.InitPage(buf, pid, 1, tracker); err != nil {
		t.Fatalf("InitPage: %v", err)
	}
	pg, err := page.Wrap(buf)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	pg.SetRecorder(tracker)
	for i := 0; i < tuples; i++ {
		tuple := bytes.Repeat([]byte{byte(i + 1)}, 100)
		if _, err := pg.InsertTuple(tuple); err != nil {
			t.Fatalf("InsertTuple: %v", err)
		}
	}
	if err := m.StorePage(pid, buf, tracker); err != nil {
		t.Fatalf("StorePage: %v", err)
	}
	return pid, buf, tracker
}

// reload loads the page fresh from Flash.
func reload(t *testing.T, m *Manager, pid uint64) ([]byte, *core.Tracker) {
	t.Helper()
	buf := make([]byte, m.PageSize())
	tracker, err := m.LoadPage(pid, buf)
	if err != nil {
		t.Fatalf("LoadPage: %v", err)
	}
	return buf, tracker
}

func modesUnderTest() []struct {
	name   string
	mode   WriteMode
	scheme core.Scheme
	flash  nand.Mode
} {
	return []struct {
		name   string
		mode   WriteMode
		scheme core.Scheme
		flash  nand.Mode
	}{
		{"traditional", WriteTraditional, core.Disabled, nand.ModeMLCFull},
		{"ipa-ssd", WriteIPASSD, core.Scheme{N: 2, M: 4}, nand.ModePSLC},
		{"ipa-native", WriteIPANative, core.Scheme{N: 2, M: 4}, nand.ModePSLC},
	}
}

// TestSmallUpdateRoundTrip exercises the full fetch / modify / evict /
// reconstruct cycle for every write mode.
func TestSmallUpdateRoundTrip(t *testing.T) {
	for _, tc := range modesUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			m := testStack(t, tc.mode, tc.scheme, tc.flash)
			pid, _, _ := newPage(t, m, 5)

			// First residency: small update.
			buf, tracker := reload(t, m, pid)
			pg, _ := page.Wrap(buf)
			pg.SetRecorder(tracker)
			if err := pg.UpdateTupleAt(2, 10, []byte{0xAB, 0xCD}); err != nil {
				t.Fatalf("UpdateTupleAt: %v", err)
			}
			pg.SetFlags(pg.Flags() | page.FlagOutOfPlace) // a metadata change rides along
			if err := m.StorePage(pid, buf, tracker); err != nil {
				t.Fatalf("StorePage: %v", err)
			}

			// Second residency: the update must be visible after
			// reconstruction, and another small update must work.
			buf2, tracker2 := reload(t, m, pid)
			pg2, _ := page.Wrap(buf2)
			got, err := pg2.Tuple(2)
			if err != nil {
				t.Fatalf("Tuple: %v", err)
			}
			if got[10] != 0xAB || got[11] != 0xCD {
				t.Fatalf("first update lost after reload: % x", got[8:14])
			}
			if pg2.Flags()&page.FlagOutOfPlace == 0 {
				t.Fatalf("Δmetadata not applied: flags=%#x", pg2.Flags())
			}
			pg2.SetRecorder(tracker2)
			if err := pg2.UpdateTupleAt(3, 0, []byte{0x77}); err != nil {
				t.Fatalf("UpdateTupleAt: %v", err)
			}
			if err := m.StorePage(pid, buf2, tracker2); err != nil {
				t.Fatalf("StorePage: %v", err)
			}

			buf3, _ := reload(t, m, pid)
			pg3, _ := page.Wrap(buf3)
			got2, _ := pg3.Tuple(3)
			got1, _ := pg3.Tuple(2)
			if got2[0] != 0x77 || got1[10] != 0xAB {
				t.Fatalf("updates lost after second reload")
			}

			stats := m.Stats()
			if tc.mode == WriteTraditional {
				if stats.IPAAppendEvictions != 0 {
					t.Fatalf("traditional mode must not append: %+v", stats)
				}
			} else if stats.IPAAppendEvictions == 0 {
				t.Fatalf("IPA mode performed no appends: %+v", stats)
			}
		})
	}
}

// TestAppendBudgetFallsBackToWholePageWrite verifies the N-record limit: after N
// appended records the next eviction rewrites the page out-of-place and the
// cycle starts over.
func TestAppendBudgetFallsBackToWholePageWrite(t *testing.T) {
	scheme := core.Scheme{N: 2, M: 4}
	m := testStack(t, WriteIPANative, scheme, nand.ModePSLC)
	pid, _, _ := newPage(t, m, 3)

	for round := 0; round < 5; round++ {
		buf, tracker := reload(t, m, pid)
		pg, _ := page.Wrap(buf)
		pg.SetRecorder(tracker)
		if err := pg.UpdateTupleAt(0, round, []byte{byte(0x10 + round)}); err != nil {
			t.Fatalf("UpdateTupleAt: %v", err)
		}
		if err := m.StorePage(pid, buf, tracker); err != nil {
			t.Fatalf("StorePage round %d: %v", round, err)
		}
	}
	stats := m.Stats()
	if stats.IPAAppendEvictions == 0 || stats.OutOfPlaceEvictions < 2 {
		t.Fatalf("expected a mix of appends and full rewrites: %+v", stats)
	}
	// All five updates must be visible.
	buf, _ := reload(t, m, pid)
	pg, _ := page.Wrap(buf)
	tuple, _ := pg.Tuple(0)
	for round := 0; round < 5; round++ {
		if tuple[round] != byte(0x10+round) {
			t.Fatalf("round %d update lost: % x", round, tuple[:6])
		}
	}
}

// TestLargeUpdateGoesOutOfPlace: a change bigger than the N×M scheme is
// written out-of-place and still read back correctly.
func TestLargeUpdateGoesOutOfPlace(t *testing.T) {
	m := testStack(t, WriteIPANative, core.Scheme{N: 2, M: 4}, nand.ModePSLC)
	pid, _, _ := newPage(t, m, 3)
	buf, tracker := reload(t, m, pid)
	pg, _ := page.Wrap(buf)
	pg.SetRecorder(tracker)
	big := bytes.Repeat([]byte{0x5A}, 64)
	if err := pg.UpdateTupleAt(1, 0, big); err != nil {
		t.Fatalf("UpdateTupleAt: %v", err)
	}
	if err := m.StorePage(pid, buf, tracker); err != nil {
		t.Fatalf("StorePage: %v", err)
	}
	s := m.Stats()
	if s.IPAAppendEvictions != 0 || s.OutOfPlaceEvictions == 0 {
		t.Fatalf("large update must go out-of-place: %+v", s)
	}
	buf2, _ := reload(t, m, pid)
	pg2, _ := page.Wrap(buf2)
	got, _ := pg2.Tuple(1)
	if !bytes.Equal(got[:64], big) {
		t.Fatalf("large update lost")
	}
}

// TestCleanEvictionSkipsWrite: a page whose changes reverted needs no write.
func TestCleanEvictionSkipsWrite(t *testing.T) {
	m := testStack(t, WriteIPANative, core.Scheme{N: 2, M: 4}, nand.ModePSLC)
	pid, _, _ := newPage(t, m, 2)
	buf, tracker := reload(t, m, pid)
	pg, _ := page.Wrap(buf)
	pg.SetRecorder(tracker)
	orig, _ := pg.Tuple(0)
	if err := pg.UpdateTupleAt(0, 0, []byte{0xEE}); err != nil {
		t.Fatalf("UpdateTupleAt: %v", err)
	}
	if err := pg.UpdateTupleAt(0, 0, orig[:1]); err != nil {
		t.Fatalf("UpdateTupleAt revert: %v", err)
	}
	before := m.FTL().Stats()
	if err := m.StorePage(pid, buf, tracker); err != nil {
		t.Fatalf("StorePage: %v", err)
	}
	after := m.FTL().Stats()
	if after.HostWrites != before.HostWrites || after.HostWriteDeltas != before.HostWriteDeltas {
		t.Fatalf("clean page must not be written")
	}
	if m.Stats().CleanEvictions == 0 {
		t.Fatalf("clean eviction not counted")
	}
}

// TestFigure1Accounting checks the statistics behind Figure 1 on the
// traditional path, where the tracker follows nothing: the eviction is
// counted against the page's Flash copy.
func TestFigure1Accounting(t *testing.T) {
	m := testStack(t, WriteTraditional, core.Disabled, nand.ModeMLCFull)
	pid, _, _ := newPage(t, m, 4)
	// Measure only the small update below, not the initial page fill.
	before := m.Stats()
	buf, tracker := reload(t, m, pid)
	pg, _ := page.Wrap(buf)
	pg.SetRecorder(tracker)
	// Tuple 0 is filled with 0x01, so this write nets 29 changed bytes.
	if err := pg.UpdateTupleAt(0, 0, append([]byte{1}, bytes.Repeat([]byte{0xEE}, 29)...)); err != nil {
		t.Fatalf("UpdateTupleAt: %v", err)
	}
	if err := m.StorePage(pid, buf, tracker); err != nil {
		t.Fatalf("StorePage: %v", err)
	}
	s := m.Stats()
	if small := s.SmallEvictions - before.SmallEvictions; small != 1 {
		t.Fatalf("a small change must count as one small eviction, got %d", small)
	}
	if net := s.NetChangedBytes - before.NetChangedBytes; net != 29 {
		t.Fatalf("NetChangedBytes grew by %d, want 29", net)
	}
	for i := range s.EvictionSizeHistogram {
		want := uint64(0)
		if i == histogramBucket(29) {
			want = 1
		}
		if got := s.EvictionSizeHistogram[i] - before.EvictionSizeHistogram[i]; got != want {
			t.Fatalf("histogram bucket %d grew by %d, want %d", i, got, want)
		}
	}
	if evicted := s.EvictedBytes - before.EvictedBytes; evicted == 0 || evicted%uint64(m.PageSize()) != 0 {
		t.Fatalf("EvictedBytes accounting wrong: %d", evicted)
	}
}

// TestFirstWriteCountsNonZeroBody: the first eviction of a fresh page is
// compared with the zeroed body page.Init formats, so it counts the
// non-zero bytes written — the tuple's and its slot entry's — on every
// write path.
func TestFirstWriteCountsNonZeroBody(t *testing.T) {
	for _, tc := range modesUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			m := testStack(t, tc.mode, tc.scheme, tc.flash)
			pid, err := m.AllocatePage(1)
			if err != nil {
				t.Fatalf("AllocatePage: %v", err)
			}
			buf := make([]byte, m.PageSize())
			tracker := new(core.Tracker)
			if err := m.InitPage(buf, pid, 1, tracker); err != nil {
				t.Fatalf("InitPage: %v", err)
			}
			pg, _ := page.Wrap(buf)
			pg.SetRecorder(tracker)
			if _, err := pg.InsertTuple([]byte{7, 0, 0, 9, 0, 5}); err != nil {
				t.Fatalf("InsertTuple: %v", err)
			}
			if err := m.StorePage(pid, buf, tracker); err != nil {
				t.Fatalf("StorePage: %v", err)
			}
			// Three tuple bytes, then the slot entry: offset 32 and length 6.
			if net := m.Stats().NetChangedBytes; net != 5 {
				t.Fatalf("first write counted %d net bytes, want 5", net)
			}
		})
	}
}

// TestOutOfPlaceCountsOnlyThisResidency: a page whose record slots are all
// used goes out of place, and its eviction counts the bytes this residency
// changed, not those its delta records on Flash changed.
func TestOutOfPlaceCountsOnlyThisResidency(t *testing.T) {
	for _, tc := range modesUnderTest()[1:] {
		t.Run(tc.name, func(t *testing.T) {
			m := testStack(t, tc.mode, tc.scheme, tc.flash)
			pid, _, _ := newPage(t, m, 3)
			update := func(slot int, data []byte) *core.Tracker {
				buf, tracker := reload(t, m, pid)
				pg, _ := page.Wrap(buf)
				pg.SetRecorder(tracker)
				if err := pg.UpdateTupleAt(slot, 0, data); err != nil {
					t.Fatalf("UpdateTupleAt: %v", err)
				}
				if err := m.StorePage(pid, buf, tracker); err != nil {
					t.Fatalf("StorePage: %v", err)
				}
				return tracker
			}
			update(0, []byte{0xA1})
			update(1, []byte{0xA2})
			if buf, tracker := reload(t, m, pid); tracker.Existing() != 2 || !tracker.OutOfPlace() {
				t.Fatalf("after two appends the page holds %d records (out of place %v), want 2 (true)", tracker.Existing(), tracker.OutOfPlace())
			} else if pg, _ := page.Wrap(buf); pg.Buf()[pg.DeltaAreaStart()] == 0xFF {
				t.Fatalf("no delta record reached Flash")
			}
			before := m.Stats()
			update(2, []byte{0xA3, 0xA4, 0xA5})
			s := m.Stats()
			if s.OutOfPlaceEvictions == before.OutOfPlaceEvictions {
				t.Fatalf("the third eviction was not a whole-page write")
			}
			if net := s.NetChangedBytes - before.NetChangedBytes; net != 3 {
				t.Fatalf("NetChangedBytes grew by %d, want 3", net)
			}
		})
	}
}

// TestChangedBytesMatchesAByteLoop holds changedBytes to the byte loop it
// stands for, on ranges of every length class with no, scattered and dense
// differences.
func TestChangedBytesMatchesAByteLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1000, 8144} {
		for _, flips := range []int{0, 1, 5, n / 3, n} {
			a := make([]byte, n)
			for i := range a {
				a[i] = byte(rng.IntN(256))
			}
			b := bytes.Clone(a)
			for range min(flips, n) {
				b[rng.IntN(n)] ^= byte(rng.IntN(255) + 1)
			}
			want := 0
			for i := range a {
				if a[i] != b[i] {
					want++
				}
			}
			if got := changedBytes(a, b); got != want {
				t.Fatalf("%d bytes, %d flips: changedBytes = %d, a byte loop counts %d", n, flips, got, want)
			}
		}
	}
}

// TestTraceRecording checks the fetch/eviction trace used for the IPL
// comparison.
func TestTraceRecording(t *testing.T) {
	m := testStack(t, WriteTraditional, core.Disabled, nand.ModeMLCFull)
	pid, _, _ := newPage(t, m, 2)
	buf, tracker := reload(t, m, pid)
	pg, _ := page.Wrap(buf)
	pg.SetRecorder(tracker)
	_ = pg.UpdateTupleAt(0, 0, []byte{9})
	_ = m.StorePage(pid, buf, tracker)

	trace := m.Trace()
	var fetches, evicts int
	for _, ev := range trace {
		switch ev.Type {
		case TraceFetch:
			fetches++
		case TraceEvict:
			evicts++
			if ev.PID != pid {
				t.Fatalf("trace PID wrong")
			}
		}
	}
	if fetches == 0 || evicts < 2 {
		t.Fatalf("trace incomplete: %d fetches, %d evicts", fetches, evicts)
	}
	if m.TraceLen() != len(trace) {
		t.Fatalf("TraceLen = %d, want %d", m.TraceLen(), len(trace))
	}
}

// TestRegionSelectiveIPA: objects in a region without a scheme are always
// written out-of-place even though the manager runs in an IPA mode.
func TestRegionSelectiveIPA(t *testing.T) {
	m := testStack(t, WriteIPANative, core.Scheme{N: 2, M: 4}, nand.ModePSLC)
	// Object 2 lives in a region without IPA.
	m.Regions().Assign(2, region.Region{Name: "no-ipa", Scheme: core.Disabled})

	pid, err := m.AllocatePage(2)
	if err != nil {
		t.Fatalf("AllocatePage: %v", err)
	}
	buf := make([]byte, m.PageSize())
	tracker := new(core.Tracker)
	if err := m.InitPage(buf, pid, 2, tracker); err != nil {
		t.Fatalf("InitPage: %v", err)
	}
	pg, _ := page.Wrap(buf)
	pg.SetRecorder(tracker)
	if pg.DeltaAreaSize() != 0 {
		t.Fatalf("no-IPA region pages must not reserve a delta area")
	}
	if _, err := pg.InsertTuple(make([]byte, 50)); err != nil {
		t.Fatalf("InsertTuple: %v", err)
	}
	if err := m.StorePage(pid, buf, tracker); err != nil {
		t.Fatalf("StorePage: %v", err)
	}
	buf2, tracker2 := reload(t, m, pid)
	pg2, _ := page.Wrap(buf2)
	pg2.SetRecorder(tracker2)
	if err := pg2.UpdateTupleAt(0, 0, []byte{1}); err != nil {
		t.Fatalf("UpdateTupleAt: %v", err)
	}
	if err := m.StorePage(pid, buf2, tracker2); err != nil {
		t.Fatalf("StorePage: %v", err)
	}
	if s := m.Stats(); s.IPAAppendEvictions != 0 {
		t.Fatalf("no-IPA region must never append: %+v", s)
	}
}

// TestAllocatePageCapacity exhausts the logical capacity.
func TestAllocatePageCapacity(t *testing.T) {
	m := testStack(t, WriteTraditional, core.Disabled, nand.ModeMLCFull)
	cap := m.FTL().Capacity()
	for i := 0; i < cap; i++ {
		if _, err := m.AllocatePage(1); err != nil {
			t.Fatalf("AllocatePage %d: %v", i, err)
		}
	}
	if _, err := m.AllocatePage(1); err == nil {
		t.Fatalf("expected capacity error")
	}
	if m.nextPID.Load() != uint64(cap) {
		t.Fatalf("allocated %d page identifiers", m.nextPID.Load())
	}
}

func TestWriteModeString(t *testing.T) {
	for _, m := range []WriteMode{WriteTraditional, WriteIPASSD, WriteIPANative, WriteMode(9)} {
		if m.String() == "" {
			t.Errorf("empty name for mode %d", m)
		}
	}
}

// TestMissAndDirtyEvictionDoNotAllocate pins the miss path on every write
// mode: a Fetch that misses — evicting a dirty page as an in-place append or
// an out-of-place write compared with its Flash copy, garbage collection
// included, then reading, ECC checking and reconstructing the wanted page
// into the frame's own tracker — and a small tracked update of it allocate
// nothing. The pool has one frame, so every fetch evicts the page before it
// whatever the replacement policy makes of the walk.
func TestMissAndDirtyEvictionDoNotAllocate(t *testing.T) {
	for _, tc := range modesUnderTest() {
		t.Run(tc.name, func(t *testing.T) {
			m := testStack(t, tc.mode, tc.scheme, tc.flash)
			m.cfg.TraceEvictions = false // as the engine runs
			var pids []uint64
			for i := 0; i < 24; i++ {
				pid, _, _ := newPage(t, m, 5)
				pids = append(pids, pid)
			}
			pool, err := buffer.New(m, 1)
			if err != nil {
				t.Fatalf("buffer.New: %v", err)
			}
			n, patch := 0, make([]byte, 2)
			cycle := func() {
				n++
				patch[0], patch[1] = byte(n), byte(n>>8)
				h, err := pool.Fetch(pids[n%len(pids)])
				if err != nil {
					t.Fatalf("Fetch: %v", err)
				}
				pg, err := page.Wrap(h.Data())
				if err != nil {
					t.Fatalf("Wrap: %v", err)
				}
				pg.SetRecorder(h.Tracker())
				if err := pg.UpdateTupleAt(n%5, 10, patch); err != nil {
					t.Fatalf("UpdateTupleAt: %v", err)
				}
				h.MarkDirty()
				h.Release()
			}
			for i := 0; i < 4*len(pids); i++ { // the frame's tracker used, the device collecting
				cycle()
			}
			before := m.Stats()
			allocs := testing.AllocsPerRun(200, cycle)
			after := m.Stats()
			if after.PageLoads-before.PageLoads < 200 || after.DirtyEvictions-before.DirtyEvictions < 200 {
				t.Fatalf("the measured cycles did not all miss and evict: %d loads, %d dirty evictions",
					after.PageLoads-before.PageLoads, after.DirtyEvictions-before.DirtyEvictions)
			}
			if tc.mode != WriteTraditional && after.IPAAppendEvictions == before.IPAAppendEvictions {
				t.Fatalf("no eviction was an in-place append")
			}
			if allocs > 0 {
				t.Fatalf("a miss with a dirty eviction allocates %.0f times", allocs)
			}
		})
	}
}

// TestLoadPageIntoDoesNotAllocate: reading a page that carries delta records
// and reconstructing it where it lies, into a tracker that is reused.
func TestLoadPageIntoDoesNotAllocate(t *testing.T) {
	m := testStack(t, WriteIPANative, core.Scheme{N: 2, M: 4}, nand.ModePSLC)
	m.cfg.TraceEvictions = false
	pid, _, _ := newPage(t, m, 5)
	buf, tracker := reload(t, m, pid)
	pg, _ := page.Wrap(buf)
	pg.SetRecorder(tracker)
	if err := pg.UpdateTupleAt(1, 3, []byte{0xEE}); err != nil {
		t.Fatalf("UpdateTupleAt: %v", err)
	}
	want := bytes.Clone(buf)
	if err := m.StorePage(pid, buf, tracker); err != nil {
		t.Fatalf("StorePage: %v", err)
	}
	var err error
	allocs := testing.AllocsPerRun(100, func() { err = m.LoadPageInto(pid, buf, tracker) })
	if err != nil || allocs != 0 {
		t.Fatalf("LoadPageInto allocates %.0f times (err %v), want 0", allocs, err)
	}
	if tracker.Existing() != 1 || !bytes.Equal(buf[:pg.BodyEnd()], want[:pg.BodyEnd()]) {
		t.Fatalf("reconstruction lost the appended record: existing = %d", tracker.Existing())
	}
}
