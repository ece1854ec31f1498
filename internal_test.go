package ipa

import (
	"reflect"
	"testing"

	"ipa/internal/region"
)

// catalogShape is what registration leaves behind: every lookup map (by the
// names and identifiers of what it holds), each table's shape, the region
// of every object and the next free object identifier.
type catalogShape struct {
	Tables          map[string]uint32
	TablesByID      map[uint32]string
	IndexesByID     map[uint32]string
	SecondaryByID   map[uint32]string
	SecondaryByName map[string]uint32
	TupleSize       map[string]int
	PKObject        map[string]uint32
	Secondaries     map[string][]string // creation order
	Regions         map[uint32]region.Region
	NextObjID       uint32
}

func shapeOf(db *DB) catalogShape {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := catalogShape{
		Tables: map[string]uint32{}, TablesByID: map[uint32]string{}, IndexesByID: map[uint32]string{},
		SecondaryByID: map[uint32]string{}, SecondaryByName: map[string]uint32{},
		TupleSize: map[string]int{}, PKObject: map[string]uint32{}, Secondaries: map[string][]string{},
		Regions: map[uint32]region.Region{}, NextObjID: db.nextObjID,
	}
	for name, t := range db.tables {
		c.Tables[name] = t.id
		c.TupleSize[name], c.PKObject[name] = t.tupleSize, t.idxID
		c.Secondaries[name] = t.SecondaryIndexes()
	}
	for id, t := range db.tablesByID {
		c.TablesByID[id], c.Regions[id] = t.name, db.regions.For(id)
	}
	for id, t := range db.indexesByID {
		c.IndexesByID[id], c.Regions[id] = t.name, db.regions.For(id)
	}
	for id, s := range db.secondaryByID {
		c.SecondaryByID[id], c.Regions[id] = s.table.name+"."+s.name, db.regions.For(id)
	}
	for name, s := range db.secondaryByName {
		c.SecondaryByName[name] = s.id
	}
	return c
}

// TestReopenRegistersWhatCreateRegistered: the catalog Reopen builds from a
// crash image is the one CreateTable and CreateSecondaryIndex built — same
// maps, same region name, scheme and kind for every heap, primary-key and
// secondary object — and object identifiers handed out afterwards lie
// above all of them.
func TestReopenRegistersWhatCreateRegistered(t *testing.T) {
	cfg := smallGeometry()
	cfg.WriteMode, cfg.Scheme, cfg.IndexScheme, cfg.FlashMode = IPANativeFlash, Scheme{N: 2, M: 4}, Scheme{N: 2, M: 8}, OddMLC
	db, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a, err := db.CreateTable("a", 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTableWithScheme("b", 48, Scheme{}) // a region that opts out of IPA
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		t    *Table
		name string
		off  int
	}{{a, "grp", 8}, {b, "x", 8}, {b, "y", 16}} {
		if _, err := ix.t.CreateSecondaryIndex(ix.name, Int64Field(ix.off)); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	for key := int64(1); key <= 4; key++ {
		if err := tx.Insert(a, key, make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(b, key, make([]byte, 48)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	before := shapeOf(db)
	if len(before.Regions) != 7 {
		t.Fatalf("fixture registers %d objects, want 2 heaps + 2 primary keys + 3 secondaries", len(before.Regions))
	}
	re, err := Reopen(db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer re.Close()
	if after := shapeOf(re); !reflect.DeepEqual(before, after) {
		t.Errorf("recovered catalog differs:\nbefore %+v\nafter  %+v", before, after)
	}
	c, err := re.CreateTable("c", 16)
	if err != nil {
		t.Fatal(err)
	}
	for id := range before.Regions {
		if c.ID() <= id || c.IndexID() <= id {
			t.Errorf("new table got objects %d and %d, not above recovered object %d", c.ID(), c.IndexID(), id)
		}
	}
	if err := re.VerifyIntegrity(); err != nil {
		t.Errorf("VerifyIntegrity: %v", err)
	}
}
