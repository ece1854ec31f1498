package index

import (
	"ipa/internal/buffer"
	"ipa/internal/storage"
)

// Secondary is the persistent entry storage of one non-unique secondary
// index. It reuses the primary-key entry-page machinery — fixed 16-byte
// entries (secondary key, packed tuple RID) in slotted pages owned by the
// index's own object identifier and NoFTL region — but is keyed by the
// *pair* (key, RID): many tuples may share one secondary key, and each
// contributes its own entry. Like the primary-key file, tombstoned slots
// are recycled through a free list (both share entryFile), and all edits
// are the tiny in-place patches the delta-append machinery absorbs.
//
// Secondary maintenance is logged with the same logical WAL vocabulary as
// the primary key (RecIndexInsert/RecIndexDelete carry the index object,
// the key and the RID), so Add and Remove are idempotent: redo may replay
// an operation whose effect already survived on Flash.
type Secondary struct {
	*entryFile[Entry]
}

// NewSecondary creates an empty secondary-index file owned by objectID.
func NewSecondary(store *storage.Manager, pool *buffer.Pool, objectID uint32) *Secondary {
	return &Secondary{newEntryFile(store, pool, objectID, func(e Entry) Entry { return e })}
}

// Add stores the (key, value) pair, recycling a tombstoned slot when one
// is free and appending a fresh entry otherwise. Adding a pair that is
// already present is a no-op, which makes WAL redo idempotent.
func (s *Secondary) Add(key int64, value uint64) error {
	e := Entry{Key: key, Value: value}
	if _, ok := s.loc[e]; ok {
		return nil
	}
	return s.insert(e)
}

// Remove deletes the (key, value) pair, tombstoning its slot and queueing
// it for reuse. Removing an absent pair is a no-op (idempotent replay).
func (s *Secondary) Remove(key int64, value uint64) error {
	return s.remove(Entry{Key: key, Value: value}, key)
}

// Contains reports whether the (key, value) pair has a live entry.
func (s *Secondary) Contains(key int64, value uint64) bool {
	return s.contains(Entry{Key: key, Value: value})
}
