package index

import (
	"testing"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/flashdev"
	"ipa/internal/ftl"
	"ipa/internal/nand"
	"ipa/internal/region"
	"ipa/internal/storage"
)

// testFile builds the full stack (device, FTL, storage, pool) and returns
// entryImage is encodeEntry as a slice.
func entryImage(key int64, value uint64) []byte {
	e := encodeEntry(key, value)
	return e[:]
}

// an index file plus the pool for flushing.
func testFile(t *testing.T, poolFrames int) (*File, *buffer.Pool, *storage.Manager) {
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
	regions.Assign(7, region.Region{Name: "t.pk", Scheme: scheme, FlashMode: nand.ModePSLC, Kind: region.KindIndex})
	store, err := storage.New(f, storage.Config{Mode: storage.WriteIPANative, Regions: regions})
	if err != nil {
		t.Fatalf("storage.New: %v", err)
	}
	pool, err := buffer.New(store, poolFrames)
	if err != nil {
		t.Fatalf("buffer.New: %v", err)
	}
	return New(store, pool, 7), pool, store
}

func TestSetDeleteLoadRoundTrip(t *testing.T) {
	ix, pool, _ := testFile(t, 8)
	const keys = 500
	for k := int64(0); k < keys; k++ {
		if err := ix.Set(k, uint64(k)<<16|5); err != nil {
			t.Fatalf("Set %d: %v", k, err)
		}
	}
	// Remap a few (in-place value rewrite) and delete a few.
	for k := int64(0); k < keys; k += 7 {
		if err := ix.Set(k, uint64(k)<<16|9); err != nil {
			t.Fatalf("remap %d: %v", k, err)
		}
	}
	for k := int64(1); k < keys; k += 13 {
		if err := ix.Delete(k); err != nil {
			t.Fatalf("Delete %d: %v", k, err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}

	// A fresh file adopting the same pages must see exactly the live set.
	reborn := New(nil, pool, 7)
	reborn.entries = ix.entries // share the underlying page list/pool
	entries, err := reborn.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got := make(map[int64]uint64, len(entries))
	for _, e := range entries {
		got[e.Key] = e.Value
	}
	for k := int64(0); k < keys; k++ {
		want := uint64(k)<<16 | 5
		if k%7 == 0 {
			want = uint64(k)<<16 | 9
		}
		deleted := k >= 1 && (k-1)%13 == 0
		v, ok := got[k]
		if deleted {
			if ok {
				t.Fatalf("key %d: deleted entry resurrected", k)
			}
			continue
		}
		if !ok || v != want {
			t.Fatalf("key %d: got (%v,%d), want %d", k, ok, v, want)
		}
	}
}

func TestLoadTombstonesDuplicates(t *testing.T) {
	ix, pool, _ := testFile(t, 8)
	// Forge a duplicate the way a crash can: two live entries for one key.
	if _, err := ix.entries.Insert(entryImage(42, 111)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := ix.entries.Insert(entryImage(42, 222)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := ix.entries.Insert(entryImage(7, 700)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	entries, err := ix.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("Load returned %d entries, want 2 (duplicate dropped)", len(entries))
	}
	if ix.Len() != 2 {
		t.Fatalf("Len=%d after dedup, want 2", ix.Len())
	}
	// A second load must see the tombstoned duplicate gone for good.
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	entries, err = ix.Load()
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("reload returned %d entries, want 2", len(entries))
	}
}

// TestDeleteReinsertRecyclesEntrySlots pins the space bound: steady-state
// delete/reinsert churn must reuse tombstoned entry slots instead of
// growing the file without limit.
func TestDeleteReinsertRecyclesEntrySlots(t *testing.T) {
	ix, pool, _ := testFile(t, 8)
	const keys = 300
	for k := int64(0); k < keys; k++ {
		if err := ix.Set(k, uint64(k)); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	base := ix.Pages()
	// 20 full delete/reinsert cycles over the whole key space, with
	// flushes in between so the churn reaches the pages.
	for round := 0; round < 20; round++ {
		for k := int64(0); k < keys; k += 3 {
			if err := ix.Delete(k); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
		if err := pool.FlushAll(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		for k := int64(0); k < keys; k += 3 {
			if err := ix.Set(k, uint64(k)+uint64(round)); err != nil {
				t.Fatalf("reinsert: %v", err)
			}
		}
	}
	if got := ix.Pages(); got != base {
		t.Fatalf("entry pages grew %d -> %d under steady-state churn; slots not recycled", base, got)
	}
	if ix.Len() != keys {
		t.Fatalf("Len=%d, want %d", ix.Len(), keys)
	}
}

// TestLoadRebuildsFreeList verifies recovery re-learns the reusable slots
// from the surviving tombstones.
func TestLoadRebuildsFreeList(t *testing.T) {
	ix, pool, _ := testFile(t, 8)
	for k := int64(0); k < 100; k++ {
		if err := ix.Set(k, uint64(k)); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	for k := int64(0); k < 100; k += 2 {
		if err := ix.Delete(k); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	base := ix.Pages()
	if _, err := ix.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Reinserting the deleted half must fit entirely into recycled slots.
	for k := int64(0); k < 100; k += 2 {
		if err := ix.Set(k, uint64(k)); err != nil {
			t.Fatalf("reinsert: %v", err)
		}
	}
	if got := ix.Pages(); got != base {
		t.Fatalf("entry pages grew %d -> %d after Load; free list not rebuilt", base, got)
	}
}

func TestIndexEvictionsUseDeltaAppends(t *testing.T) {
	ix, pool, store := testFile(t, 4)
	// Fill one page, flush it, then make single-entry edits with eviction
	// pressure: the tiny edits must be persisted as index delta appends.
	for k := int64(0); k < 100; k++ {
		if err := ix.Set(k, uint64(k)); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for k := int64(0); k < 100; k += 25 {
		if err := ix.Set(k, uint64(k)+1_000_000); err != nil {
			t.Fatalf("remap: %v", err)
		}
		if err := pool.FlushAll(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	s := store.Stats()
	if s.IndexInPlaceAppends == 0 {
		t.Fatalf("expected index delta appends, stats %+v", s)
	}
	if s.IndexPageWrites == 0 {
		t.Fatalf("index counters not populated: %+v", s)
	}
	if s.IndexPageWrites != s.DirtyEvictions {
		t.Fatalf("all evictions here are index evictions: index=%d total=%d", s.IndexPageWrites, s.DirtyEvictions)
	}
}
