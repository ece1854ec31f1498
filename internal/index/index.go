// Package index implements the persistent side of the engine's indexes —
// the unique primary-key index (File) and non-unique secondary indexes
// (Secondary): entry pages that live in the buffer pool and reach Flash
// through the same storage-manager write paths as heap pages.
//
// Each index is stored as a file of fixed 16-byte entries (key, packed
// RID) kept in slotted pages owned by the index's own object identifier
// and NoFTL region. The primary-key file holds one entry per key; a
// secondary file holds one entry per (key, RID) pair, so many tuples may
// share a key. Index maintenance is exactly the small-update pattern
// In-Place Appends targets: an insert appends one entry (a handful of
// bytes plus a slot), a delete flips one slot marker, a remap rewrites
// eight bytes in place — all of which the change tracker turns into N×M
// delta records instead of full page rewrites.
//
// The sorted search structure (internal/btree) stays volatile: inner nodes
// are derivable metadata, rebuilt at open time from the entries themselves,
// so no inter-page pointers ever reach Flash and recovery never depends on
// a multi-page structure modification being flushed atomically. After a
// crash, any subset of flushed entry pages plus the durable write-ahead log
// reconstructs the exact committed mapping (see ipa.Reopen).
//
// An index holds no lock of its own: the caller serialises every call on
// one File or Secondary (the engine holds the owning table's mutex, or
// runs recovery on one goroutine). Entry bytes are guarded by the buffer
// pool's page latches like any heap page's.
package index

import (
	"encoding/binary"
	"fmt"

	"ipa/internal/buffer"
	"ipa/internal/heap"
	"ipa/internal/storage"
)

// EntrySize is the on-page size of one index entry: int64 key plus packed
// 48/16-bit RID value, both little-endian.
const EntrySize = 16

// Entry is one persistent index entry.
type Entry struct {
	Key   int64
	Value uint64
}

// encodeEntry serialises an entry into an array, which stays on the
// caller's stack.
func encodeEntry(key int64, value uint64) (buf [EntrySize]byte) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(key))
	binary.LittleEndian.PutUint64(buf[8:], value)
	return buf
}

// decodeEntry parses an entry.
func decodeEntry(buf []byte) Entry {
	return Entry{
		Key:   int64(binary.LittleEndian.Uint64(buf[0:])),
		Value: binary.LittleEndian.Uint64(buf[8:]),
	}
}

// entryFile is the storage core both index kinds share: entry pages, a map
// from each live entry's identity K to the slot holding it, and a free list
// of tombstoned slots so delete/reinsert churn recycles entry space instead
// of growing the file without bound. K is the key alone for the unique
// primary-key File and the whole (key, RID) pair for a Secondary. Slot
// recycling is safe here — unlike heap files — because index WAL records
// are logical (keyed), never slot-addressed.
type entryFile[K comparable] struct {
	entries *heap.File
	id      func(Entry) K
	loc     map[K]uint64 // identity -> packed entry-slot location
	free    []uint64     // packed locations of tombstoned, reusable slots
}

func newEntryFile[K comparable](store *storage.Manager, pool *buffer.Pool, objectID uint32, id func(Entry) K) *entryFile[K] {
	return &entryFile[K]{
		entries: heap.New(store, pool, objectID, EntrySize),
		id:      id,
		loc:     make(map[K]uint64),
	}
}

// ObjectID returns the owning object identifier of the index.
func (f *entryFile[K]) ObjectID() uint32 { return f.entries.ObjectID() }

// Len returns the number of live entries.
func (f *entryFile[K]) Len() int { return len(f.loc) }

// Pages returns the number of entry pages of the index.
func (f *entryFile[K]) Pages() int { return len(f.entries.PageIDs()) }

// PageIDs returns the identifiers of all entry pages.
func (f *entryFile[K]) PageIDs() []uint64 { return f.entries.PageIDs() }

// contains reports whether the entry identified by k is live.
func (f *entryFile[K]) contains(k K) bool {
	_, ok := f.loc[k]
	return ok
}

// insert stores an entry that is not present yet: it recycles a
// tombstoned slot (a 16-byte entry rewrite plus a 2-byte slot revive) or —
// only when no slot is free — appends a fresh entry.
func (f *entryFile[K]) insert(e Entry) error {
	img := encodeEntry(e.Key, e.Value)
	if n := len(f.free); n > 0 {
		packed := f.free[n-1]
		if err := f.entries.Reuse(heap.Unpack(packed), img[:]); err != nil {
			return fmt.Errorf("index: reuse slot for key %d: %w", e.Key, err)
		}
		f.free = f.free[:n-1]
		f.loc[f.id(e)] = packed
		return nil
	}
	rid, err := f.entries.Insert(img[:])
	if err != nil {
		return fmt.Errorf("index: insert key %d: %w", e.Key, err)
	}
	f.loc[f.id(e)] = rid.Pack()
	return nil
}

// remove tombstones the slot of the entry identified by k (key is its key,
// for the error text) and queues the slot for reuse. Removing an absent
// entry is a no-op, which recovery relies on for idempotent replay.
func (f *entryFile[K]) remove(k K, key int64) error {
	packed, ok := f.loc[k]
	if !ok {
		return nil
	}
	if err := f.entries.Delete(heap.Unpack(packed)); err != nil {
		return fmt.Errorf("index: delete key %d: %w", key, err)
	}
	delete(f.loc, k)
	f.free = append(f.free, packed)
	return nil
}

// AdoptPages installs the entry pages that survived a crash (ascending
// order). Load must be called afterwards to rebuild the entry locations.
func (f *entryFile[K]) AdoptPages(pids []uint64) { f.entries.AdoptPages(pids) }

// Load scans the adopted entry pages, rebuilds the entry locations and the
// reusable-slot free list, and returns the surviving live entries. A crash
// between the flush of two entry pages can leave duplicate entries for one
// identity (delete tombstone unflushed, reinserted entry flushed
// elsewhere); Load keeps the first and tombstones the rest — WAL replay
// then rewrites the survivor with the committed value (File) or restores
// the exact committed pair set (Secondary), so the arbitrary choice never
// becomes visible.
func (f *entryFile[K]) Load() ([]Entry, error) {
	f.loc = make(map[K]uint64)
	f.free = nil
	var (
		out  []Entry
		dups []heap.RID
	)
	err := f.entries.ScanSlots(func(rid heap.RID, tuple []byte, deleted bool) bool {
		if deleted {
			f.free = append(f.free, rid.Pack())
			return true
		}
		e := decodeEntry(tuple)
		if _, seen := f.loc[f.id(e)]; seen {
			dups = append(dups, rid)
			return true
		}
		f.loc[f.id(e)] = rid.Pack()
		out = append(out, e)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	for _, rid := range dups {
		if err := f.entries.Delete(rid); err != nil {
			return nil, fmt.Errorf("index: drop duplicate entry %s: %w", rid, err)
		}
		f.free = append(f.free, rid.Pack())
	}
	return out, nil
}

// File is the persistent entry storage of one unique index: one entry per
// key, so deletes and remaps can edit a key's entry in place.
type File struct {
	*entryFile[int64]
}

// New creates an empty index file owned by objectID.
func New(store *storage.Manager, pool *buffer.Pool, objectID uint32) *File {
	return &File{newEntryFile(store, pool, objectID, func(e Entry) int64 { return e.Key })}
}

// Set maps key to value, rewriting the existing entry's value bytes in
// place (an 8-byte patch) or storing a new entry in a recycled or fresh
// slot. All of these are the small in-place edits the delta-append
// machinery absorbs.
func (f *File) Set(key int64, value uint64) error {
	if packed, ok := f.loc[key]; ok {
		var img [8]byte
		binary.LittleEndian.PutUint64(img[:], value)
		if err := f.entries.UpdateAt(heap.Unpack(packed), 8, img[:]); err != nil {
			return fmt.Errorf("index: remap key %d: %w", key, err)
		}
		return nil
	}
	return f.insert(Entry{Key: key, Value: value})
}

// Delete removes key's entry (tombstoning its slot and queueing it for
// reuse). Deleting an absent key is a no-op, which recovery relies on for
// idempotent replay.
func (f *File) Delete(key int64) error { return f.remove(key, key) }

// Contains reports whether key has a live entry.
func (f *File) Contains(key int64) bool { return f.contains(key) }
