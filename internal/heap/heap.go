// Package heap implements heap files: RID-addressed collections of
// fixed-size tuples stored in NSM slotted pages.
//
// Heap files are the storage substrate the OLTP benchmark tables live in.
// Every mutating operation goes through the buffer pool and attaches the
// frame's change tracker to the page, so the byte-level effects of tuple
// updates are visible to the In-Place Appends machinery without the heap
// layer knowing anything about Flash.
//
// Under MVCC (internal/txn's VersionCache) a heap slot always holds the
// newest bytes of its record — superseded committed versions live only in
// the in-memory version cache, never in the heap. Slots of WAL-addressed
// heaps are never reused after a delete (Reuse is reserved for
// non-transactional callers), so a packed RID uniquely names one record
// for the lifetime of the database and can key version chains without ABA
// hazards.
//
// A File holds no lock of its own. Tuple bytes are guarded by the page
// latches of the buffer pool (View and Scan take a shared latch, writes an
// exclusive one). The page list is the caller's to serialise: Insert, the
// Adopt methods, PageIDs and Scan must not run concurrently with an Insert
// or an Adopt on the same File (the engine holds the owning table's mutex,
// or runs recovery on one goroutine).
package heap

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/page"
	"ipa/internal/storage"
)

// RID identifies a tuple: page identifier and slot within the page.
type RID struct {
	PageID uint64
	Slot   uint16
}

// Pack encodes the RID into a single uint64 (48-bit page, 16-bit slot) for
// use as an index value.
func (r RID) Pack() uint64 { return r.PageID<<16 | uint64(r.Slot) }

// Unpack decodes a packed RID.
func Unpack(v uint64) RID { return RID{PageID: v >> 16, Slot: uint16(v & 0xFFFF)} }

// String renders the RID.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.PageID, r.Slot) }

// ErrNotFound is returned when a RID does not address a live tuple.
var ErrNotFound = errors.New("heap: tuple not found")

// File is one heap file (one table's tuple storage).
type File struct {
	objectID  uint32
	tupleSize int
	store     *storage.Manager
	pool      *buffer.Pool
	pages     []uint64 // all pages of the file, in allocation order
}

// New creates an empty heap file for the given object.
func New(store *storage.Manager, pool *buffer.Pool, objectID uint32, tupleSize int) *File {
	return &File{
		objectID:  objectID,
		tupleSize: tupleSize,
		store:     store,
		pool:      pool,
	}
}

// ObjectID returns the owning object identifier.
func (f *File) ObjectID() uint32 { return f.objectID }

// TupleSize returns the fixed tuple size of the file.
func (f *File) TupleSize() int { return f.tupleSize }

// PageIDs returns the identifiers of all pages of the file.
func (f *File) PageIDs() []uint64 {
	out := make([]uint64, len(f.pages))
	copy(out, f.pages)
	return out
}

// AdoptPages installs the page list of a heap file rebuilt from a surviving
// Flash image after a crash. pids must be in ascending order (page
// identifiers are allocated sequentially, so that is allocation order).
func (f *File) AdoptPages(pids []uint64) {
	f.pages = append([]uint64(nil), pids...)
}

// AdoptPage registers a single page recreated during recovery (a page the
// crash took before its first flush), keeping the list sorted.
func (f *File) AdoptPage(pid uint64) {
	i := sort.Search(len(f.pages), func(i int) bool { return f.pages[i] >= pid })
	if i < len(f.pages) && f.pages[i] == pid {
		return
	}
	f.pages = append(f.pages, 0)
	copy(f.pages[i+1:], f.pages[i:])
	f.pages[i] = pid
}

// withPage pins a page exclusively, wraps it and attaches the frame's
// tracker as the change recorder, then runs fn. fn receives the page by
// value — a Page is a buffer and a recorder, and a pointer handed to a
// function value would force the wrapper onto the heap on every call.
func (f *File) withPage(pid uint64, fn func(h *buffer.Handle, pg page.Page) error) error {
	h, err := f.pool.Fetch(pid)
	if err != nil {
		return err
	}
	defer h.Release()
	pg, err := page.Wrap(h.Data())
	if err != nil {
		return err
	}
	pg.SetRecorder(h.Tracker())
	return fn(h, *pg)
}

// withPageShared pins a page with a shared latch for read-only access, so
// concurrent readers of the same page proceed in parallel. fn must not
// modify the page.
func (f *File) withPageShared(pid uint64, fn func(pg page.Page) error) error {
	h, err := f.pool.FetchShared(pid)
	if err != nil {
		return err
	}
	defer h.Release()
	pg, err := page.Wrap(h.Data())
	if err != nil {
		return err
	}
	return fn(*pg)
}

// Insert stores a tuple and returns its RID. Tuples must have the file's
// fixed size.
func (f *File) Insert(tuple []byte) (RID, error) { return f.InsertLogged(tuple, nil) }

// InsertLogged is Insert for a caller that writes a log record for the
// tuple: logged (if not nil) runs with the new RID while the page is still
// pinned and latched, so no eviction or flush — a reader's miss on another
// goroutine is enough to cause one — can carry the tuple to storage before
// the record describing it exists. The RID is only known once the tuple is
// placed, so an insert cannot log first the way an update does. If logged
// fails the tuple stays placed and its RID is returned with the error.
func (f *File) InsertLogged(tuple []byte, logged func(RID) error) (RID, error) {
	if len(tuple) != f.tupleSize {
		return RID{}, fmt.Errorf("heap: tuple size %d, want %d", len(tuple), f.tupleSize)
	}
	// Try the most recently allocated page first.
	if n := len(f.pages); n > 0 {
		rid, ok, err := f.tryInsert(f.pages[n-1], tuple, logged)
		if ok || err != nil {
			return rid, err
		}
	}
	// Allocate a fresh page. The full one was fetched once per tuple while
	// it filled, and no more tuples come to it: its count is a burst, not
	// reuse, so it is forgotten.
	if n := len(f.pages); n > 0 {
		f.pool.Forget(f.pages[n-1])
	}
	pid, err := f.store.AllocatePage(f.objectID)
	if err != nil {
		return RID{}, err
	}
	h, err := f.pool.Create(pid, func(buf []byte, t *core.Tracker) error {
		return f.store.InitPage(buf, pid, f.objectID, t)
	})
	if err != nil {
		return RID{}, err
	}
	defer h.Release()
	pg, err := page.Wrap(h.Data())
	if err != nil {
		return RID{}, err
	}
	pg.SetRecorder(h.Tracker())
	slot, err := pg.InsertTuple(tuple)
	if err != nil {
		return RID{}, err
	}
	h.MarkDirty()
	f.pages = append(f.pages, pid)
	rid := RID{PageID: pid, Slot: uint16(slot)}
	if logged != nil {
		err = logged(rid)
	}
	return rid, err
}

// tryInsert attempts to insert into an existing page; ok is false if
// the page is full, and true once the tuple is placed, whether or not
// logging it then succeeded.
func (f *File) tryInsert(pid uint64, tuple []byte, logged func(RID) error) (RID, bool, error) {
	var rid RID
	var ok bool
	err := f.withPage(pid, func(h *buffer.Handle, pg page.Page) error {
		if pg.FreeSpace() < len(tuple)+page.SlotSize {
			return nil
		}
		slot, err := pg.InsertTuple(tuple)
		if err != nil {
			return err
		}
		h.MarkDirty()
		rid = RID{PageID: pid, Slot: uint16(slot)}
		ok = true
		if logged != nil {
			return logged(rid)
		}
		return nil
	})
	return rid, ok, err
}

// Get returns a copy of the tuple at rid.
func (f *File) Get(rid RID) ([]byte, error) {
	var out []byte
	err := f.View(rid, func(t []byte) error {
		if t == nil {
			return fmt.Errorf("%w: %s", ErrNotFound, rid)
		}
		out = bytes.Clone(t)
		return nil
	})
	return out, err
}

// View runs fn under the shared latch of rid's page with the tuple as the
// page holds it (nil if rid addresses no live tuple), which fn must neither
// write nor keep.
func (f *File) View(rid RID, fn func(tuple []byte) error) error {
	return f.withPageShared(rid.PageID, func(pg page.Page) error {
		t, _ := pg.TupleBytes(int(rid.Slot)) // its only errors mean "no live tuple"
		return fn(t)
	})
}

// UpdateAt overwrites len(data) bytes of the tuple at rid starting at the
// tuple-relative offset. This is the small in-place update IPA targets.
func (f *File) UpdateAt(rid RID, offset int, data []byte) error {
	return f.UpdateAtWith(rid, offset, data, nil)
}

// UpdateAtWith is UpdateAt for a caller with work to do under the page's
// exclusive latch before the bytes change (a transaction locks, versions
// and logs the tuple): check, if not nil, first sees the tuple as View's fn
// does, and the update happens only if it returns nil.
func (f *File) UpdateAtWith(rid RID, offset int, data []byte, check func(cur []byte) error) error {
	return f.withPage(rid.PageID, func(h *buffer.Handle, pg page.Page) error {
		if check != nil {
			cur, _ := pg.TupleBytes(int(rid.Slot)) // its only errors mean "no live tuple"
			if err := check(cur); err != nil {
				return err
			}
		}
		if err := pg.UpdateTupleAt(int(rid.Slot), offset, data); err != nil {
			if errors.Is(err, page.ErrDeleted) || errors.Is(err, page.ErrBadSlot) {
				return fmt.Errorf("%w: %s", ErrNotFound, rid)
			}
			return err
		}
		h.MarkDirty()
		return nil
	})
}

// Reuse re-materialises a previously deleted slot with a fresh tuple of
// the same fixed size, reclaiming its space instead of growing the file.
// The caller must know the slot is deleted (e.g. from its own free list).
//
// Heap files addressed by WAL records must NOT reuse slots — recovery's
// redo relies on a slot belonging to exactly one logged insert ever. The
// index entry files (internal/index) are exempt: their WAL records are
// logical (keyed, never slot-addressed), which is what makes entry-slot
// recycling safe there.
func (f *File) Reuse(rid RID, tuple []byte) error {
	if len(tuple) != f.tupleSize {
		return fmt.Errorf("heap: tuple size %d, want %d", len(tuple), f.tupleSize)
	}
	return f.withPage(rid.PageID, func(h *buffer.Handle, pg page.Page) error {
		deleted, err := pg.Deleted(int(rid.Slot))
		if err != nil {
			return err
		}
		if !deleted {
			return fmt.Errorf("heap: slot %s is live, cannot reuse", rid)
		}
		if err := pg.RestoreTuple(int(rid.Slot), tuple); err != nil {
			return err
		}
		h.MarkDirty()
		return nil
	})
}

// Delete removes the tuple at rid.
func (f *File) Delete(rid RID) error {
	return f.withPage(rid.PageID, func(h *buffer.Handle, pg page.Page) error {
		if err := pg.DeleteTuple(int(rid.Slot)); err != nil {
			if errors.Is(err, page.ErrDeleted) || errors.Is(err, page.ErrBadSlot) {
				return fmt.Errorf("%w: %s", ErrNotFound, rid)
			}
			return err
		}
		h.MarkDirty()
		return nil
	})
}

// Scan calls fn for every live tuple of the file, in page/slot order, until
// fn returns false or the file is exhausted. fn runs under the page's
// shared latch and must not modify the file (use Table-level scans to
// combine reading with updates).
func (f *File) Scan(fn func(rid RID, tuple []byte) bool) error {
	return f.ScanSlots(func(rid RID, tuple []byte, deleted bool) bool {
		if deleted {
			return true
		}
		return fn(rid, tuple)
	})
}

// ScanSlots calls fn for every slot of the file — live and deleted — in
// page/slot order, until fn returns false. Deleted slots are reported
// with a nil tuple. Index recovery uses it to rebuild both the live
// entries and the reusable-slot free list in one pass.
func (f *File) ScanSlots(fn func(rid RID, tuple []byte, deleted bool) bool) error {
	for _, pid := range f.pages {
		stop := false
		err := f.withPageShared(pid, func(pg page.Page) error {
			for s := 0; s < pg.SlotCount(); s++ {
				deleted, err := pg.Deleted(s)
				if err != nil {
					return err
				}
				var t []byte
				if !deleted {
					if t, err = pg.Tuple(s); err != nil {
						return err
					}
				}
				if !fn(RID{PageID: pid, Slot: uint16(s)}, t, deleted) {
					stop = true
					return nil
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}
