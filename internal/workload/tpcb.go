package workload

import (
	"fmt"
	"math/rand"

	"ipa"
)

// TPC-B tuple sizes (bytes). TPC-B prescribes 100-byte account, teller and
// branch rows and ~50-byte history rows.
const (
	tpcbAccountSize = 100
	tpcbTellerSize  = 100
	tpcbBranchSize  = 100
	tpcbHistorySize = 50

	// Balance fields live at offset 8 of each row (after the key copy), so
	// a balance update modifies 8 bytes of a 100-byte tuple — the small
	// update pattern Figure 1 is about.
	tpcbBalanceOffset = 8

	// tpcbInitialBalance keeps balances far away from zero so the random
	// walk of TPC-B deltas normally touches only the low-order bytes of
	// the 8-byte balance (sign flips would rewrite all eight bytes and
	// artificially inflate the per-update change size).
	tpcbInitialBalance = int64(1234567890123)

	// tpcbTellersPerBranch is the TPC-B value.
	tpcbTellersPerBranch = 10
)

// TPCBConfig scales the TPC-B database.
type TPCBConfig struct {
	// Branches is the scale factor (number of branches; default 4).
	Branches int
	// AccountsPerBranch defaults to 10000 (scaled down from TPC-B's
	// 100000 to fit the simulated device).
	AccountsPerBranch int
}

func (c TPCBConfig) withDefaults() TPCBConfig {
	if c.Branches <= 0 {
		c.Branches = 4
	}
	if c.AccountsPerBranch <= 0 {
		c.AccountsPerBranch = 10000
	}
	return c
}

// TPCB is the TPC-B benchmark driver: every transaction updates an account,
// its teller and its branch balance and appends a history row.
type TPCB struct {
	cfg TPCBConfig

	accounts *ipa.Table
	tellers  *ipa.Table
	branches *ipa.Table
	history  *ipa.Table

	nextHistoryID int64
}

// NewTPCB creates a TPC-B driver.
func NewTPCB(cfg TPCBConfig) *TPCB { return &TPCB{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (w *TPCB) Name() string { return "tpcb" }

// Load implements Workload: it creates and populates the four TPC-B tables.
func (w *TPCB) Load(db *ipa.DB) error {
	var err error
	if w.accounts, err = db.CreateTable("tpcb_accounts", tpcbAccountSize); err != nil {
		return err
	}
	if w.tellers, err = db.CreateTable("tpcb_tellers", tpcbTellerSize); err != nil {
		return err
	}
	if w.branches, err = db.CreateTable("tpcb_branches", tpcbBranchSize); err != nil {
		return err
	}
	// History is append-only: large inserts never profit from IPA, so the
	// table is placed in a region without in-place appends, exactly the
	// selective use of NoFTL regions the paper describes.
	if w.history, err = db.CreateTableWithScheme("tpcb_history", tpcbHistorySize, ipa.Scheme{}); err != nil {
		return err
	}

	c := w.cfg
	ld := NewLoader(db)
	for b := 0; b < c.Branches; b++ {
		row := make([]byte, tpcbBranchSize)
		fill(row, int64(b)+1000)
		putInt64(row, 0, int64(b))
		putInt64(row, tpcbBalanceOffset, tpcbInitialBalance)
		if err := ld.Insert(w.branches, int64(b), row); err != nil {
			return fmt.Errorf("tpcb load branches: %w", err)
		}
	}
	for t := 0; t < c.Branches*tpcbTellersPerBranch; t++ {
		row := make([]byte, tpcbTellerSize)
		fill(row, int64(t)+2000)
		putInt64(row, 0, int64(t))
		putInt64(row, tpcbBalanceOffset, tpcbInitialBalance)
		if err := ld.Insert(w.tellers, int64(t), row); err != nil {
			return fmt.Errorf("tpcb load tellers: %w", err)
		}
	}
	for a := 0; a < c.Branches*c.AccountsPerBranch; a++ {
		row := make([]byte, tpcbAccountSize)
		fill(row, int64(a)+3000)
		putInt64(row, 0, int64(a))
		putInt64(row, tpcbBalanceOffset, tpcbInitialBalance)
		if err := ld.Insert(w.accounts, int64(a), row); err != nil {
			return fmt.Errorf("tpcb load accounts: %w", err)
		}
	}
	return finishLoad(db, ld)
}

// RunOne implements Workload: one TPC-B transaction.
func (w *TPCB) RunOne(db *ipa.DB, r *rand.Rand) (bool, error) {
	c := w.cfg
	branch := randInt64(r, int64(c.Branches))
	teller := branch*tpcbTellersPerBranch + randInt64(r, tpcbTellersPerBranch)
	// 85% of accounts belong to the home branch, 15% are remote (TPC-B).
	var account int64
	if r.Intn(100) < 85 || c.Branches == 1 {
		account = branch*int64(c.AccountsPerBranch) + randInt64(r, int64(c.AccountsPerBranch))
	} else {
		account = randInt64(r, int64(c.Branches*c.AccountsPerBranch))
	}
	delta := int64(r.Intn(1999999) - 999999)

	return attempt(db, func(tx *ipa.Tx) error {
		// Account balance.
		row, err := tx.Get(w.accounts, account)
		if err != nil {
			return err
		}
		newBal := getInt64(row, tpcbBalanceOffset) + delta
		if err := tx.UpdateAt(w.accounts, account, tpcbBalanceOffset, int64Bytes(newBal)); err != nil {
			return err
		}
		// Teller balance.
		row, err = tx.Get(w.tellers, teller)
		if err != nil {
			return err
		}
		if err := tx.UpdateAt(w.tellers, teller, tpcbBalanceOffset, int64Bytes(getInt64(row, tpcbBalanceOffset)+delta)); err != nil {
			return err
		}
		// Branch balance.
		row, err = tx.Get(w.branches, branch)
		if err != nil {
			return err
		}
		if err := tx.UpdateAt(w.branches, branch, tpcbBalanceOffset, int64Bytes(getInt64(row, tpcbBalanceOffset)+delta)); err != nil {
			return err
		}
		// History row.
		w.nextHistoryID++
		hrow := make([]byte, tpcbHistorySize)
		fill(hrow, w.nextHistoryID)
		putInt64(hrow, 0, w.nextHistoryID)
		putInt64(hrow, 8, account)
		putInt64(hrow, 16, delta)
		return tx.Insert(w.history, w.nextHistoryID, hrow)
	})
}
