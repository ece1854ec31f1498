package ipa_test

import (
	"fmt"
	"testing"

	"ipa"
)

// smallConfig returns a small device/engine configuration whose buffer pool
// is much smaller than the working set, so pages are evicted and re-fetched
// constantly and the write path is exercised heavily.
func smallConfig(mode ipa.WriteMode, scheme ipa.Scheme, flash ipa.FlashMode) ipa.Config {
	return ipa.Config{
		PageSize:        4096,
		Blocks:          64,
		PagesPerBlock:   32,
		BufferPoolPages: 16,
		WriteMode:       mode,
		Scheme:          scheme,
		FlashMode:       flash,
	}
}

// fillTuple builds a deterministic tuple of the given size.
func fillTuple(size int, seed int64) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(seed + int64(i)*7)
	}
	return b
}

// autoTx runs write in its own transaction: committed on success, rolled
// back (returning the write's error) on failure.
func autoTx(db *ipa.DB, write func(tx *ipa.Tx) error) error {
	tx := db.Begin()
	if err := write(tx); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// insertRow, updateRow and deleteRow are single-statement transactions.
func insertRow(db *ipa.DB, tbl *ipa.Table, key int64, row []byte) error {
	return autoTx(db, func(tx *ipa.Tx) error { return tx.Insert(tbl, key, row) })
}

func updateRow(db *ipa.DB, tbl *ipa.Table, key int64, offset int, data []byte) error {
	return autoTx(db, func(tx *ipa.Tx) error { return tx.UpdateAt(tbl, key, offset, data) })
}

func deleteRow(db *ipa.DB, tbl *ipa.Table, key int64) error {
	return autoTx(db, func(tx *ipa.Tx) error { return tx.Delete(tbl, key) })
}

// crashReopen power-cuts db (nothing volatile survives) and recovers it,
// returning the new handle and its table called name.
func crashReopen(t *testing.T, db *ipa.DB, name string) (*ipa.DB, *ipa.Table) {
	t.Helper()
	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	t.Cleanup(func() { db2.Close() })
	tbl, ok := db2.Table(name)
	if !ok {
		t.Fatalf("table %q lost across the crash", name)
	}
	return db2, tbl
}

func allModes() []struct {
	name   string
	mode   ipa.WriteMode
	scheme ipa.Scheme
	flash  ipa.FlashMode
} {
	return []struct {
		name   string
		mode   ipa.WriteMode
		scheme ipa.Scheme
		flash  ipa.FlashMode
	}{
		{"traditional", ipa.Traditional, ipa.Scheme{}, ipa.MLCFull},
		{"ipa-ssd-pslc", ipa.IPAConventionalSSD, ipa.Scheme{N: 2, M: 4}, ipa.PSLC},
		{"ipa-native-pslc", ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC},
		{"ipa-native-oddmlc", ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.OddMLC},
		{"ipa-native-slc", ipa.IPANativeFlash, ipa.Scheme{N: 4, M: 8}, ipa.SLCMode},
	}
}

// TestEngineInsertUpdateReadBack verifies, for every write mode, that data
// survives buffer evictions and reloads: small updates must be readable
// whether they were persisted as delta records or as whole pages.
func TestEngineInsertUpdateReadBack(t *testing.T) {
	for _, tc := range allModes() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.mode, tc.scheme, tc.flash)
			db, err := ipa.Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer db.Close()

			table, err := db.CreateTable("t", 100)
			if err != nil {
				t.Fatalf("CreateTable: %v", err)
			}
			const keys = 600
			for k := int64(0); k < keys; k++ {
				if err := insertRow(db, table, k, fillTuple(100, k)); err != nil {
					t.Fatalf("Insert %d: %v", k, err)
				}
			}
			// Update a small field of every tuple several times; the tiny
			// buffer pool forces evictions between rounds.
			for round := 0; round < 3; round++ {
				for k := int64(0); k < keys; k++ {
					tx := db.Begin()
					val := []byte{byte(round + 1), byte(k)}
					if err := tx.UpdateAt(table, k, 10, val); err != nil {
						t.Fatalf("UpdateAt %d: %v", k, err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatalf("Commit: %v", err)
					}
				}
			}
			if err := db.FlushAll(); err != nil {
				t.Fatalf("FlushAll: %v", err)
			}
			for k := int64(0); k < keys; k++ {
				row, err := table.Get(k)
				if err != nil {
					t.Fatalf("Get %d: %v", k, err)
				}
				want := fillTuple(100, k)
				want[10], want[11] = 3, byte(k)
				if string(row) != string(want) {
					t.Fatalf("key %d: tuple mismatch after updates\n got %x\nwant %x", k, row, want)
				}
			}
			stats := db.Stats()
			if tc.mode != ipa.Traditional && stats.IPAAppendEvictions == 0 {
				t.Errorf("expected in-place append evictions in mode %s, got stats %+v", tc.mode, stats)
			}
			if tc.mode == ipa.Traditional && stats.IPAAppendEvictions != 0 {
				t.Errorf("traditional mode must not use in-place appends, got %d", stats.IPAAppendEvictions)
			}
		})
	}
}

// TestEngineGCReduction checks the paper's headline effect: under an
// update-intensive workload, IPA causes fewer page invalidations and fewer
// GC erases than the traditional out-of-place baseline.
func TestEngineGCReduction(t *testing.T) {
	run := func(mode ipa.WriteMode, scheme ipa.Scheme, flash ipa.FlashMode) ipa.Stats {
		cfg := smallConfig(mode, scheme, flash)
		db, err := ipa.Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()
		table, err := db.CreateTable("t", 100)
		if err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		const keys = 2000
		for k := int64(0); k < keys; k++ {
			if err := insertRow(db, table, k, fillTuple(100, k)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		db.ResetStats()
		for i := 0; i < 30000; i++ {
			k := int64(i*7919) % keys
			if err := updateRow(db, table, k, 8, []byte{byte(i), byte(i >> 8)}); err != nil {
				t.Fatalf("UpdateAt: %v", err)
			}
		}
		if err := db.FlushAll(); err != nil {
			t.Fatalf("FlushAll: %v", err)
		}
		return db.Stats()
	}

	base := run(ipa.Traditional, ipa.Scheme{}, ipa.MLCFull)
	ipaStats := run(ipa.IPANativeFlash, ipa.Scheme{N: 2, M: 4}, ipa.PSLC)

	if base.Invalidations == 0 {
		t.Fatalf("baseline produced no invalidations; workload too small: %+v", base)
	}
	if ipaStats.Invalidations >= base.Invalidations {
		t.Errorf("IPA should invalidate fewer pages: base=%d ipa=%d", base.Invalidations, ipaStats.Invalidations)
	}
	if base.GCErases > 0 && ipaStats.GCErases >= base.GCErases {
		t.Errorf("IPA should erase fewer blocks: base=%d ipa=%d", base.GCErases, ipaStats.GCErases)
	}
	if ipaStats.InPlaceAppends == 0 {
		t.Errorf("IPA run performed no in-place appends: %+v", ipaStats)
	}
}

// TestEngineRecovery verifies that WAL-based recovery produces the same
// state with and without IPA (the paper: "regular database functionality is
// NOT impacted").
func TestEngineRecovery(t *testing.T) {
	for _, tc := range allModes() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.mode, tc.scheme, tc.flash)
			db, err := ipa.Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer db.Close()
			table, err := db.CreateTable("t", 64)
			if err != nil {
				t.Fatalf("CreateTable: %v", err)
			}
			for k := int64(0); k < 100; k++ {
				if err := insertRow(db, table, k, fillTuple(64, k)); err != nil {
					t.Fatalf("Insert: %v", err)
				}
			}
			// Committed transaction.
			tx := db.Begin()
			if err := tx.UpdateAt(table, 5, 20, []byte{0xAA, 0xBB}); err != nil {
				t.Fatalf("UpdateAt: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			// Aborted transaction: its change must not survive.
			tx2 := db.Begin()
			if err := tx2.UpdateAt(table, 6, 20, []byte{0xCC}); err != nil {
				t.Fatalf("UpdateAt: %v", err)
			}
			if err := tx2.Abort(); err != nil {
				t.Fatalf("Abort: %v", err)
			}
			db, table = crashReopen(t, db, "t")
			row5, err := table.Get(5)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if row5[20] != 0xAA || row5[21] != 0xBB {
				t.Errorf("committed update lost after recovery: % x", row5[18:24])
			}
			row6, err := table.Get(6)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			want := fillTuple(64, 6)
			if row6[20] != want[20] {
				t.Errorf("aborted update survived recovery: got %x want %x", row6[20], want[20])
			}
		})
	}
}

// TestEngineSchemeValidation rejects nonsensical configurations.
func TestEngineSchemeValidation(t *testing.T) {
	_, err := ipa.Open(ipa.Config{Scheme: ipa.Scheme{N: 2, M: 0}, WriteMode: ipa.IPANativeFlash})
	if err == nil {
		t.Fatalf("expected error for half-enabled scheme")
	}
}

// ExampleOpen demonstrates the quickstart from the package documentation.
func ExampleOpen() {
	db, err := ipa.Open(ipa.Config{
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
		PageSize:        4096,
		Blocks:          64,
		PagesPerBlock:   32,
		BufferPoolPages: 32,
	})
	if err != nil {
		fmt.Println("open failed:", err)
		return
	}
	defer db.Close()
	accounts, _ := db.CreateTable("accounts", 64)
	_ = insertRow(db, accounts, 1, make([]byte, 64))
	tx := db.Begin()
	_ = tx.UpdateAt(accounts, 1, 0, []byte{42})
	_ = tx.Commit()
	row, _ := accounts.Get(1)
	fmt.Println(row[0])
	// Output: 42
}
