package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ipa"
)

// testDB opens a small database suitable for the scaled-down workloads.
func testDB(t *testing.T, mode ipa.WriteMode) *ipa.DB {
	t.Helper()
	db, err := ipa.Open(ipa.Config{
		PageSize:        4096,
		Blocks:          96,
		PagesPerBlock:   32,
		BufferPoolPages: 64,
		WriteMode:       mode,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// TestAttemptOutcomes: a body that succeeds commits; a conflict or a missing
// key is a clean abort; any other error is returned. Each body first inserts
// key 1, which survives only the commit.
func TestAttemptOutcomes(t *testing.T) {
	db := testDB(t, ipa.IPANativeFlash)
	defer db.Close()
	row := make([]byte, 16)
	cases := []struct {
		name    string
		then    func(tx *ipa.Tx, tbl *ipa.Table) error
		ok      bool
		wantErr error
	}{
		{"commit", func(*ipa.Tx, *ipa.Table) error { return nil }, true, nil},
		{"conflict", func(*ipa.Tx, *ipa.Table) error { return fmt.Errorf("lock: %w", ipa.ErrConflict) }, false, nil},
		{"missing key", func(tx *ipa.Tx, tbl *ipa.Table) error { _, err := tx.Get(tbl, 2); return err }, false, nil},
		{"duplicate key", func(tx *ipa.Tx, tbl *ipa.Table) error { return tx.Insert(tbl, 1, row) }, false, ipa.ErrDuplicateKey},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := db.CreateTable(fmt.Sprintf("attempt%d", i), len(row))
			if err != nil {
				t.Fatalf("CreateTable: %v", err)
			}
			ok, err := attempt(db, func(tx *ipa.Tx) error {
				if err := tx.Insert(tbl, 1, row); err != nil {
					return err
				}
				return tc.then(tx, tbl)
			})
			if ok != tc.ok || !errors.Is(err, tc.wantErr) {
				t.Fatalf("attempt = (%v, %v), want (%v, %v)", ok, err, tc.ok, tc.wantErr)
			}
			if _, err := tbl.Get(1); (err == nil) != tc.ok {
				t.Fatalf("row after attempt: Get err %v, want visible %v", err, tc.ok)
			}
		})
	}
}

func TestTPCBInvariants(t *testing.T) {
	db := testDB(t, ipa.IPANativeFlash)
	defer db.Close()
	cfg := TPCBConfig{Branches: 2, AccountsPerBranch: 2000}
	w := NewTPCB(cfg)
	if err := w.Load(db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(db, w, RunOptions{MaxOps: 500, Seed: 5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Committed != 500 {
		t.Fatalf("committed %d of 500", res.Committed)
	}
	if n := w.history.Count(); n != 500 {
		t.Fatalf("history rows = %d, want 500", n)
	}
	// Money conservation: the sum of all balance changes must be equal
	// across accounts, tellers and branches.
	sum := func(tbl *ipa.Table, rows int) int64 {
		var total int64
		for k := int64(0); k < int64(rows); k++ {
			row, err := tbl.Get(k)
			if err != nil {
				t.Fatalf("%s %d: %v", tbl.Name(), k, err)
			}
			total += getInt64(row, tpcbBalanceOffset) - tpcbInitialBalance
		}
		return total
	}
	accounts := sum(w.accounts, cfg.Branches*cfg.AccountsPerBranch)
	tellers := sum(w.tellers, cfg.Branches*tpcbTellersPerBranch)
	branches := sum(w.branches, cfg.Branches)
	if accounts != tellers || tellers != branches {
		t.Fatalf("money not conserved: accounts=%d tellers=%d branches=%d", accounts, tellers, branches)
	}
}

func TestTPCBDeterministicWithSeed(t *testing.T) {
	run := func() ipa.Stats {
		db := testDB(t, ipa.IPANativeFlash)
		defer db.Close()
		w := NewTPCB(TPCBConfig{Branches: 1, AccountsPerBranch: 1000})
		if err := w.Load(db); err != nil {
			t.Fatalf("Load: %v", err)
		}
		db.ResetStats()
		if _, err := Run(db, w, RunOptions{MaxOps: 300, Seed: 7}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := db.FlushAll(); err != nil {
			t.Fatalf("FlushAll: %v", err)
		}
		return db.Stats()
	}
	a, b := run(), run()
	if a.HostWrites != b.HostWrites || a.InPlaceAppends != b.InPlaceAppends || a.GCErases != b.GCErases {
		t.Fatalf("same seed must give identical I/O: %+v vs %+v", a, b)
	}
}

func TestTATPRuns(t *testing.T) {
	db := testDB(t, ipa.IPANativeFlash)
	defer db.Close()
	w := NewTATP(TATPConfig{Subscribers: 3000, Seed: 5})
	if err := w.Load(db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	db.ResetStats()
	res, err := Run(db, w, RunOptions{MaxOps: 800, Seed: 11})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Committed != 800 {
		t.Fatalf("committed %d", res.Committed)
	}
	s := db.Stats()
	// TATP is read dominated: reads must clearly outnumber writes.
	if s.HostReads <= s.TotalHostWrites() {
		t.Fatalf("TATP should be read-dominated: reads=%d writes=%d", s.HostReads, s.TotalHostWrites())
	}
}

func TestTPCCRuns(t *testing.T) {
	db := testDB(t, ipa.IPANativeFlash)
	defer db.Close()
	w := NewTPCC(TPCCConfig{Warehouses: 1, CustomersPerDistrict: 100, Items: 500})
	if err := w.Load(db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(db, w, RunOptions{MaxOps: 300, Seed: 13})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Committed != 300 {
		t.Fatalf("committed %d", res.Committed)
	}
	// New-Order transactions must have inserted orders and order lines.
	orders, _ := db.Table("tpcc_orders")
	lines, _ := db.Table("tpcc_order_line")
	if orders.Count() == 0 || lines.Count() <= orders.Count() {
		t.Fatalf("order insertion wrong: %d orders, %d lines", orders.Count(), lines.Count())
	}
}

func TestLinkBenchRuns(t *testing.T) {
	db := testDB(t, ipa.IPANativeFlash)
	defer db.Close()
	w := NewLinkBench(LinkBenchConfig{Nodes: 2000, LinksPerNode: 2, Seed: 5})
	if err := w.Load(db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(db, w, RunOptions{MaxOps: 500, Seed: 17})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Committed != 500 {
		t.Fatalf("committed %d", res.Committed)
	}
}

func TestRunOptionValidation(t *testing.T) {
	db := testDB(t, ipa.Traditional)
	defer db.Close()
	w := NewTPCB(TPCBConfig{Branches: 1, AccountsPerBranch: 100})
	if err := w.Load(db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, max := range []int{0, -1} {
		_, err := Run(db, w, RunOptions{MaxOps: max})
		if err == nil || !strings.Contains(err.Error(), "MaxOps > 0") {
			t.Fatalf("MaxOps %d: err %v, want the MaxOps > 0 rejection", max, err)
		}
	}
}

func TestTATPSecondaryRuns(t *testing.T) {
	db := testDB(t, ipa.IPANativeFlash)
	defer db.Close()
	w := NewTATP(TATPConfig{Subscribers: 2000, Seed: 5, SecondaryLookups: true})
	if err := w.Load(db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	db.ResetStats()
	res, err := Run(db, w, RunOptions{MaxOps: 600, Seed: 11})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Committed != 600 {
		t.Fatalf("committed %d", res.Committed)
	}
	// The sub_nbr index resolves every subscriber injectively.
	subs, _ := db.Table("tatp_subscriber")
	rows, err := subs.GetBySecondary("sub_nbr", subNbr(42))
	if err != nil || len(rows) != 1 {
		t.Fatalf("sub_nbr lookup: %d rows (%v), want 1", len(rows), err)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

func TestSecondaryChurnRuns(t *testing.T) {
	db := testDB(t, ipa.IPANativeFlash)
	defer db.Close()
	w := NewSecondaryChurn(SecondaryChurnConfig{Rows: 2000, Groups: 64})
	if err := w.Load(db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	db.ResetStats()
	res, err := Run(db, w, RunOptions{MaxOps: 600, Seed: 19})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Committed != 600 {
		t.Fatalf("committed %d", res.Committed)
	}
	// Group moves must not lose entries: the index still carries one
	// entry per row.
	items, _ := db.Table("sec_items")
	s, ok := items.SecondaryIndex("group")
	if !ok || s.Len() != 2000 {
		t.Fatalf("group index carries %d entries (ok=%v), want 2000", s.Len(), ok)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

func TestLinkBenchSecondaryRuns(t *testing.T) {
	db := testDB(t, ipa.IPANativeFlash)
	defer db.Close()
	w := NewLinkBench(LinkBenchConfig{Nodes: 1000, LinksPerNode: 2, Seed: 5, AssocByID2: true})
	if err := w.Load(db); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(db, w, RunOptions{MaxOps: 400, Seed: 17})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Committed != 400 {
		t.Fatalf("committed %d", res.Committed)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

func TestWorkloadNames(t *testing.T) {
	if NewTPCB(TPCBConfig{}).Name() != "tpcb" ||
		NewTPCC(TPCCConfig{}).Name() != "tpcc" ||
		NewTATP(TATPConfig{}).Name() != "tatp" ||
		NewLinkBench(LinkBenchConfig{}).Name() != "linkbench" ||
		NewTATP(TATPConfig{SecondaryLookups: true}).Name() != "tatpsec" ||
		NewLinkBench(LinkBenchConfig{AssocByID2: true}).Name() != "linkbenchsec" ||
		NewSecondaryChurn(SecondaryChurnConfig{}).Name() != "secchurn" {
		t.Fatalf("workload names wrong")
	}
}

func TestHelperEncoding(t *testing.T) {
	b := make([]byte, 16)
	putInt64(b, 4, -123456789)
	if got := getInt64(b, 4); got != -123456789 {
		t.Fatalf("putInt64/getInt64 round trip failed: %d", got)
	}
	if got := getInt64(int64Bytes(42), 0); got != 42 {
		t.Fatalf("int64Bytes wrong: %d", got)
	}
	r := rand.New(rand.NewSource(1))
	if v := randInt64(r, 0); v != 0 {
		t.Fatalf("randInt64 with n<=0 must return 0")
	}
	for i := 0; i < 100; i++ {
		v := nonUniform(r, 255, 10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("nonUniform out of range: %d", v)
		}
	}
	buf := make([]byte, 32)
	fill(buf, 7)
	allZero := true
	for _, x := range buf {
		if x != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatalf("fill produced all zeroes")
	}
}

// TestLoaderBatchesAndAborts: rows loaded across a batch boundary are all
// committed and crash-safe; a duplicate key aborts the open batch (and only
// it) and surfaces ErrDuplicateKey.
func TestLoaderBatchesAndAborts(t *testing.T) {
	db := testDB(t, ipa.IPANativeFlash)
	defer db.Close()
	tbl, err := db.CreateTable("t", 32)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const rows = loadBatch + 44 // one full batch plus a partial one
	ld := NewLoader(db)
	row := make([]byte, 32)
	for k := int64(0); k < rows; k++ {
		putInt64(row, 0, k)
		if err := ld.Insert(tbl, k, row); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
	}
	if got := db.Stats().CommittedTxns; got != 1 {
		t.Fatalf("%d commits after %d rows, want 1 (the full batch)", got, rows)
	}
	if err := ld.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := db.Stats().CommittedTxns; got != 2 {
		t.Fatalf("%d commits after the final Commit, want 2", got)
	}

	// A second load collides on its third row: the two rows before it in
	// the open batch are rolled back with it.
	for k := int64(rows); k < rows+2; k++ {
		if err := ld.Insert(tbl, k, row); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
	}
	if err := ld.Insert(tbl, 0, row); !errors.Is(err, ipa.ErrDuplicateKey) {
		t.Fatalf("duplicate insert = %v, want ErrDuplicateKey", err)
	}
	if err := ld.Commit(); err != nil {
		t.Fatalf("Commit after an aborted batch: %v", err)
	}

	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	if got := tbl2.Count(); got != rows {
		t.Fatalf("%d rows after crash, want %d", got, rows)
	}
	for _, k := range []int64{0, loadBatch - 1, loadBatch, rows - 1} {
		got, err := tbl2.Get(k)
		if err != nil || getInt64(got, 0) != k {
			t.Fatalf("row %d after crash: %v (err %v)", k, got, err)
		}
	}
	if _, err := tbl2.Get(rows); !errors.Is(err, ipa.ErrKeyNotFound) {
		t.Fatalf("row of the aborted batch survived: %v", err)
	}
}
