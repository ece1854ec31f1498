package workload

import (
	"math/rand"

	"ipa"
)

// LinkBench-like tuple sizes.
const (
	lbNodeSize = 128
	lbLinkSize = 64

	// Offsets of the fields touched by the small-update operations.
	lbNodeVersionOffset = 8  // node version counter (8 bytes)
	lbNodeTimeOffset    = 16 // node update timestamp (8 bytes)
	lbLinkTimeOffset    = 16 // link timestamp (8 bytes)
	lbLinkVisOffset     = 24 // link visibility flag (1 byte)
)

// LinkBenchConfig scales the social-graph workload.
type LinkBenchConfig struct {
	// Nodes is the number of graph nodes.
	Nodes int
	// LinksPerNode is the average out-degree loaded initially.
	LinksPerNode int
	// Seed drives the load-phase generator.
	Seed int64
	// AssocByID2 switches the driver to the secondary-index variant
	// ("linkbenchsec"): links carry a secondary index on their target
	// node (id2), link reads become reverse-association lookups through
	// it, and link inserts churn the index transactionally.
	AssocByID2 bool
}

func (c LinkBenchConfig) withDefaults() LinkBenchConfig {
	if c.Nodes <= 0 {
		c.Nodes = 20000
	}
	if c.LinksPerNode <= 0 {
		c.LinksPerNode = 4
	}
	if c.Seed == 0 {
		c.Seed = 17
	}
	return c
}

// LinkBench is a social-network workload in the spirit of Facebook's
// LinkBench: a node store and a link store, with a read-dominated mix and
// small counter/timestamp updates. It is the "social network workload"
// referenced in the paper's introduction.
type LinkBench struct {
	cfg LinkBenchConfig

	nodes *ipa.Table
	links *ipa.Table

	nextLinkID int64
}

// NewLinkBench creates a LinkBench-like driver.
func NewLinkBench(cfg LinkBenchConfig) *LinkBench { return &LinkBench{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (w *LinkBench) Name() string {
	if w.cfg.AssocByID2 {
		return "linkbenchsec"
	}
	return "linkbench"
}

// Load implements Workload.
func (w *LinkBench) Load(db *ipa.DB) error {
	var err error
	if w.nodes, err = db.CreateTable("lb_nodes", lbNodeSize); err != nil {
		return err
	}
	if w.links, err = db.CreateTable("lb_links", lbLinkSize); err != nil {
		return err
	}
	if w.cfg.AssocByID2 {
		// Created before any link exists, so all maintenance during the
		// measured run is transactional and WAL-covered.
		if _, err = w.links.CreateSecondaryIndex("id2", ipa.Int64Field(8)); err != nil {
			return err
		}
	}
	r := rand.New(rand.NewSource(w.cfg.Seed))
	ld := NewLoader(db)
	for n := int64(0); n < int64(w.cfg.Nodes); n++ {
		row := make([]byte, lbNodeSize)
		fill(row, n+70000)
		putInt64(row, 0, n)
		putInt64(row, lbNodeVersionOffset, 1)
		if err := ld.Insert(w.nodes, n, row); err != nil {
			return err
		}
	}
	for n := int64(0); n < int64(w.cfg.Nodes); n++ {
		for l := 0; l < w.cfg.LinksPerNode; l++ {
			w.nextLinkID++
			row := make([]byte, lbLinkSize)
			fill(row, w.nextLinkID+80000)
			putInt64(row, 0, n)
			putInt64(row, 8, randInt64(r, int64(w.cfg.Nodes)))
			row[lbLinkVisOffset] = 1
			if err := ld.Insert(w.links, w.nextLinkID, row); err != nil {
				return err
			}
		}
	}
	return finishLoad(db, ld)
}

// RunOne implements Workload: roughly 70% reads, 25% small updates, 5%
// link inserts (the LinkBench production mix is similarly read-heavy).
func (w *LinkBench) RunOne(db *ipa.DB, r *rand.Rand) (bool, error) {
	node := zipfNode(r, int64(w.cfg.Nodes))
	p := r.Intn(100)

	return attempt(db, func(tx *ipa.Tx) error {
		switch {
		case p < 55: // get node
			_, err := tx.Get(w.nodes, node)
			return err
		case p < 70: // get link (by id, or reverse-assoc by target in the variant)
			if w.cfg.AssocByID2 {
				_, err := w.links.GetBySecondary("id2", randInt64(r, int64(w.cfg.Nodes)))
				return err
			}
			_, err := tx.Get(w.links, 1+randInt64(r, w.nextLinkID))
			return err
		case p < 85: // bump node version + timestamp (16 contiguous bytes)
			row, err := tx.Get(w.nodes, node)
			if err != nil {
				return err
			}
			return tx.UpdateAt(w.nodes, node, lbNodeVersionOffset, int64Bytes(getInt64(row, lbNodeVersionOffset)+1))
		case p < 95: // touch a link timestamp (8 bytes) and visibility (1 byte)
			link := 1 + randInt64(r, w.nextLinkID)
			if err := tx.UpdateAt(w.links, link, lbLinkTimeOffset, int64Bytes(int64(p))); err != nil {
				return err
			}
			return tx.UpdateAt(w.links, link, lbLinkVisOffset, []byte{1})
		default: // insert a new link
			w.nextLinkID++
			row := make([]byte, lbLinkSize)
			fill(row, w.nextLinkID+80000)
			putInt64(row, 0, node)
			putInt64(row, 8, randInt64(r, int64(w.cfg.Nodes)))
			row[lbLinkVisOffset] = 1
			return tx.Insert(w.links, w.nextLinkID, row)
		}
	})
}

// zipfNode draws a node id with a mild skew (hot nodes are touched more
// often, as in real social graphs).
func zipfNode(r *rand.Rand, n int64) int64 {
	if n <= 1 {
		return 0
	}
	// Pick from a hot set of 10% of the nodes 60% of the time.
	if r.Intn(100) < 60 {
		hot := n / 10
		if hot < 1 {
			hot = 1
		}
		return r.Int63n(hot)
	}
	return r.Int63n(n)
}
