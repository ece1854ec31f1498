package heap

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/flashdev"
	"ipa/internal/ftl"
	"ipa/internal/nand"
	"ipa/internal/region"
	"ipa/internal/storage"
)

// testFile builds the full stack (device, FTL, storage, pool) and returns a
// heap file plus the pool for flushing.
func testFile(t *testing.T, tupleSize, poolFrames int) (*File, *buffer.Pool) {
	t.Helper()
	dev, err := flashdev.New(flashdev.Config{
		Chips: 1,
		Chip: nand.Config{
			Geometry:        nand.Geometry{Blocks: 32, PagesPerBlock: 16, PageSize: 2048, OOBSize: 128},
			Cell:            nand.MLC,
			StrictOverwrite: true,
			Seed:            4,
		},
		Latency: flashdev.DefaultLatencyModel(),
	})
	if err != nil {
		t.Fatalf("flashdev.New: %v", err)
	}
	scheme := core.Scheme{N: 2, M: 4}
	f, err := ftl.New(dev, ftl.Config{
		FlashMode:     nand.ModePSLC,
		EccCoverBytes: 2048 - 16 - scheme.AreaSize(48),
	})
	if err != nil {
		t.Fatalf("ftl.New: %v", err)
	}
	regions := region.NewManager(region.Region{Name: "default", Scheme: scheme, FlashMode: nand.ModePSLC})
	store, err := storage.New(f, storage.Config{Mode: storage.WriteIPANative, Regions: regions})
	if err != nil {
		t.Fatalf("storage.New: %v", err)
	}
	pool, err := buffer.New(store, poolFrames)
	if err != nil {
		t.Fatalf("buffer.New: %v", err)
	}
	return New(store, pool, 1, tupleSize), pool
}

func tuple(size int, seed byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// live counts f's live tuples with Scan.
func live(t *testing.T, f *File) uint64 {
	t.Helper()
	n := uint64(0)
	if err := f.Scan(func(RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestInsertGet(t *testing.T) {
	f, _ := testFile(t, 80, 8)
	var rids []RID
	for i := 0; i < 200; i++ {
		rid, err := f.Insert(tuple(80, byte(i)))
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	if n := live(t, f); n != 200 {
		t.Fatalf("%d live tuples after 200 inserts", n)
	}
	if len(f.PageIDs()) < 2 {
		t.Fatalf("200 tuples of 80 bytes must span several pages")
	}
	for i, rid := range rids {
		got, err := f.Get(rid)
		if err != nil {
			t.Fatalf("Get %v: %v", rid, err)
		}
		if !bytes.Equal(got, tuple(80, byte(i))) {
			t.Fatalf("tuple %d content wrong", i)
		}
	}
}

func TestInsertWrongSize(t *testing.T) {
	f, _ := testFile(t, 80, 8)
	if _, err := f.Insert(make([]byte, 10)); err == nil {
		t.Fatalf("wrong tuple size must be rejected")
	}
}

func TestUpdateAtSurvivesEviction(t *testing.T) {
	// A pool of only 4 frames forces constant evictions.
	f, pool := testFile(t, 100, 4)
	var rids []RID
	for i := 0; i < 150; i++ {
		rid, err := f.Insert(tuple(100, byte(i)))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		if err := f.UpdateAt(rid, 20, []byte{byte(i), 0xFE}); err != nil {
			t.Fatalf("UpdateAt %v: %v", rid, err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	for i, rid := range rids {
		got, err := f.Get(rid)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got[20] != byte(i) || got[21] != 0xFE {
			t.Fatalf("update of %v lost: % x", rid, got[18:24])
		}
	}
}

func TestDelete(t *testing.T) {
	f, _ := testFile(t, 60, 8)
	rid, err := f.Insert(tuple(60, 9))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := f.Delete(rid); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := f.Get(rid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted tuple still found: %v", err)
	}
	if err := f.Delete(rid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete must report not found: %v", err)
	}
	if err := f.UpdateAt(rid, 0, []byte{1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of deleted tuple must fail: %v", err)
	}
	if n := live(t, f); n != 0 {
		t.Fatalf("%d live tuples after the delete", n)
	}
}

func TestScan(t *testing.T) {
	f, _ := testFile(t, 64, 8)
	const n = 120
	for i := 0; i < n; i++ {
		if _, err := f.Insert(tuple(64, byte(i))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	seen := 0
	err := f.Scan(func(rid RID, tup []byte) bool {
		seen++
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if seen != n {
		t.Fatalf("Scan visited %d tuples, want %d", seen, n)
	}
	// Early termination.
	seen = 0
	_ = f.Scan(func(rid RID, tup []byte) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("Scan did not stop early: %d", seen)
	}
}

func TestRIDPackUnpack(t *testing.T) {
	r := RID{PageID: 123456, Slot: 789}
	if got := Unpack(r.Pack()); got != r {
		t.Fatalf("pack/unpack mismatch: %v vs %v", got, r)
	}
	if r.String() == "" {
		t.Fatalf("RID.String empty")
	}
}

func TestObjectIDAndTupleSize(t *testing.T) {
	f, _ := testFile(t, 77, 8)
	if f.ObjectID() != 1 || f.TupleSize() != 77 {
		t.Fatalf("accessors wrong: %d %d", f.ObjectID(), f.TupleSize())
	}
}

// TestInsertLoggedRunsUnderThePin: the log callback must run before the page
// can leave the pool. Cycling more pages than the pool has frames through it
// from inside the callback evicts everything evictable; the page that took
// the tuple must still be resident and dirty afterwards — not written back
// with a tuple whose log record does not exist yet.
func TestInsertLoggedRunsUnderThePin(t *testing.T) {
	const frames = 4
	f, pool := testFile(t, 80, frames)
	var first []RID // one tuple on each of the first pages
	for i := 0; len(first) <= 2*frames; i++ {
		rid, err := f.Insert(tuple(80, byte(i)))
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		if rid.Slot == 0 {
			first = append(first, rid)
		}
	}
	before := live(t, f)
	calls := 0
	logged := func(rid RID) error {
		calls++
		for _, other := range first {
			if other.PageID == rid.PageID {
				continue
			}
			if _, err := f.Get(other); err != nil {
				return err
			}
		}
		for _, pid := range pool.DirtySnapshot() {
			if pid == rid.PageID {
				return nil
			}
		}
		return fmt.Errorf("page %d was written back before its insert was logged", rid.PageID)
	}
	// Enough inserts to take both paths: into the last page, and onto a
	// freshly created one.
	for i := 0; i < 40; i++ {
		if _, err := f.InsertLogged(tuple(80, byte(i)), logged); err != nil {
			t.Fatalf("InsertLogged %d: %v", i, err)
		}
	}
	if n := live(t, f); calls != 40 || n != before+40 {
		t.Fatalf("callback ran %d times and the live tuples grew by %d for 40 inserts", calls, n-before)
	}
	wantErr := errors.New("log full")
	rid, err := f.InsertLogged(tuple(80, 1), func(RID) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("callback error not returned: %v", err)
	}
	if got, gerr := f.Get(rid); gerr != nil || !bytes.Equal(got, tuple(80, 1)) {
		t.Fatalf("tuple whose logging failed is not at the returned RID: %v", gerr)
	}
}

// TestResidentAccessAllocations pins what a heap operation on a cached page
// costs: the wrapped page stays on the stack, the buffer handle and the
// change tracker belong to the frame, so an in-place update allocates
// nothing and a read only the copy it returns.
func TestResidentAccessAllocations(t *testing.T) {
	f, _ := testFile(t, 80, 8)
	rid, err := f.Insert(tuple(80, 1))
	if err != nil {
		t.Fatal(err)
	}
	patch := []byte{1, 2, 3, 4}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := f.UpdateAt(rid, 40, patch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("UpdateAt on a cached page allocates %.1f times, want 0", allocs)
	}
	var seen int
	if allocs := testing.AllocsPerRun(100, func() {
		if err := f.UpdateAtWith(rid, 40, patch, func(cur []byte) error { seen += len(cur); return nil }); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("UpdateAtWith on a cached page allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.Get(rid); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("Get on a cached page allocates %.1f times, want 1 (the copy)", allocs)
	}
}

// TestFilledPageForgetsItsFillBurst: an append-only file's page is fetched
// once per tuple while it fills and never again, so the pool forgets that
// burst when the file moves on to a fresh page. A hot set of eight pages,
// each read once per 32 inserts, then stays resident in a pool of sixteen
// frames while the other file fills pages; counting the fills would price
// each filled page at a saturated count, above the hot pages'.
func TestFilledPageForgetsItsFillBurst(t *testing.T) {
	const size, hot = 100, 8
	log, pool := testFile(t, size, 16)
	hotFile := New(log.store, pool, 2, size)
	var rids []RID
	for len(rids) < hot {
		rid, err := hotFile.Insert(tuple(size, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) == 0 || rids[len(rids)-1].PageID != rid.PageID {
			rids = append(rids, rid)
		}
	}
	run := func(inserts int) {
		for i := 0; i < inserts; i++ {
			if _, err := log.Insert(tuple(size, byte(i))); err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				if _, err := hotFile.Get(rids[i/4%hot]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run(600)
	before := pool.Stats().BufferMisses
	run(600)
	if missed := pool.Stats().BufferMisses - before; missed != 0 {
		t.Fatalf("%d misses while the other file filled %d pages, want 0: the hot set and the tail page stay resident", missed, len(log.PageIDs()))
	}
}
