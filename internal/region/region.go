// Package region implements NoFTL-style regions: named groups of database
// objects that share a Flash-management configuration.
//
// The paper applies In-Place Appends selectively, only to database objects
// dominated by small updates, by configuring the corresponding NoFTL
// region. A region carries the N×M scheme and the MLC operation mode used
// for the objects assigned to it; objects without an explicit assignment
// fall back to the default region.
package region

import (
	"fmt"
	"sync"

	"ipa/internal/core"
	"ipa/internal/nand"
)

// Kind classifies the database objects a region holds. Index regions let
// the storage manager account (and a deployment tune) index-page Flash
// management separately from heap pages: B-tree entry pages absorb tiny
// slot edits and are therefore the prime delta-append candidates.
type Kind int

const (
	// KindHeap regions hold tuple (heap) pages.
	KindHeap Kind = iota
	// KindIndex regions hold primary-key index entry pages.
	KindIndex
	// KindCatalog regions hold the DBMS catalog pages (checkpoint state).
	// Catalog pages are tiny and overwritten in place on every fuzzy
	// checkpoint, which makes them natural delta-append candidates.
	KindCatalog
)

// String names the region kind.
func (k Kind) String() string {
	switch k {
	case KindIndex:
		return "index"
	case KindCatalog:
		return "catalog"
	default:
		return "heap"
	}
}

// Region describes the Flash-management configuration of a group of
// database objects.
type Region struct {
	// Name identifies the region (for reporting).
	Name string
	// Scheme is the N×M In-Place Appends configuration; the zero scheme
	// disables IPA for the region's objects.
	Scheme core.Scheme
	// FlashMode is the MLC operation mode (pSLC, odd-MLC, ...) requested
	// for the region's objects.
	FlashMode nand.Mode
	// Kind classifies the region's objects (heap pages vs index pages).
	Kind Kind
}

// String renders the region for logs and reports.
func (r Region) String() string {
	return fmt.Sprintf("%s[%s,%s]", r.Name, r.Scheme, r.FlashMode)
}

// Manager maps database object identifiers to regions.
type Manager struct {
	mu       sync.RWMutex
	def      Region
	byObject map[uint32]Region
}

// NewManager creates a manager with the given default region.
func NewManager(def Region) *Manager {
	if def.Name == "" {
		def.Name = "default"
	}
	return &Manager{def: def, byObject: make(map[uint32]Region)}
}

// Default returns the default region.
func (m *Manager) Default() Region {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.def
}

// Assign places a database object into a region.
func (m *Manager) Assign(objectID uint32, r Region) {
	m.mu.Lock()
	m.byObject[objectID] = r
	m.mu.Unlock()
}

// For returns the region governing the given object.
func (m *Manager) For(objectID uint32) Region {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if r, ok := m.byObject[objectID]; ok {
		return r
	}
	return m.def
}
