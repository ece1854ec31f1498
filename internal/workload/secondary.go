package workload

import (
	"fmt"
	"math/rand"

	"ipa"
)

// Secondary-churn tuple layout: int64 primary key at offset 0, int64
// group (the indexed secondary attribute) at offset 8, payload behind.
const (
	scTupleSize   = 80
	scGroupOffset = 8
)

// SecondaryChurnConfig scales the secondary-churn workload.
type SecondaryChurnConfig struct {
	// Rows is the number of indexed rows.
	Rows int
	// Groups is the number of distinct secondary-key values; Rows/Groups
	// tuples share each key.
	Groups int
}

func (c SecondaryChurnConfig) withDefaults() SecondaryChurnConfig {
	if c.Rows <= 0 {
		c.Rows = 20000
	}
	if c.Groups <= 0 {
		c.Groups = 512
	}
	return c
}

// SecondaryChurn isolates secondary-index maintenance: a single table
// whose rows never move in the heap and whose primary keys never change,
// with a non-unique secondary index on a group attribute. The mix is 60%
// secondary lookups and 40% updates that move a row to another group —
// each move is one logical entry delete plus one insert in the secondary
// index and nothing in the primary key, so the engine's KindIndex
// counters measure (almost) pure secondary maintenance.
type SecondaryChurn struct {
	cfg   SecondaryChurnConfig
	items *ipa.Table
}

// NewSecondaryChurn creates the driver.
func NewSecondaryChurn(cfg SecondaryChurnConfig) *SecondaryChurn {
	return &SecondaryChurn{cfg: cfg.withDefaults()}
}

// Name implements Workload.
func (w *SecondaryChurn) Name() string { return "secchurn" }

// Load implements Workload.
func (w *SecondaryChurn) Load(db *ipa.DB) error {
	var err error
	if w.items, err = db.CreateTable("sec_items", scTupleSize); err != nil {
		return err
	}
	if _, err = w.items.CreateSecondaryIndex("group", ipa.Int64Field(scGroupOffset)); err != nil {
		return err
	}
	ld := NewLoader(db)
	for k := int64(0); k < int64(w.cfg.Rows); k++ {
		row := make([]byte, scTupleSize)
		fill(row, k+90000)
		putInt64(row, 0, k)
		putInt64(row, scGroupOffset, k%int64(w.cfg.Groups))
		if err := ld.Insert(w.items, k, row); err != nil {
			return fmt.Errorf("secchurn load: %w", err)
		}
	}
	return finishLoad(db, ld)
}

// RunOne implements Workload.
func (w *SecondaryChurn) RunOne(db *ipa.DB, r *rand.Rand) (bool, error) {
	groups := int64(w.cfg.Groups)
	if r.Intn(100) < 60 {
		// Secondary lookup: all rows currently in one group.
		if _, err := w.items.GetBySecondary("group", r.Int63n(groups)); err != nil {
			return false, err
		}
		return true, nil
	}
	// Group move: rewrite the indexed attribute of one row, relocating
	// its secondary entry (logical delete + insert, both logged).
	key := randInt64(r, int64(w.cfg.Rows))
	return attempt(db, func(tx *ipa.Tx) error {
		return tx.UpdateAt(w.items, key, scGroupOffset, int64Bytes(r.Int63n(groups)))
	})
}
