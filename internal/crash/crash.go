// Package crash implements the deterministic power-cut torture harness:
// it runs a TPC-B style workload — with secondary-index maintenance mixed
// in (accounts indexed by balance, history rows by account) — against an
// engine with a fault plan attached, crashes the simulated device at
// every enumerated fault point (every program, erase and log flush —
// optionally torn mid-operation), reopens the database from the surviving
// Flash image and durable log, and verifies the recovery invariants
// against an exact oracle:
//
//   - every transaction whose Commit returned success is fully visible,
//   - every in-flight, aborted or commit-interrupted transaction is fully
//     rolled back (updates restored, inserted tuples gone, index entries
//     reversed — secondary entry moves included),
//   - the FTL mapping and every page checksum validate, every index is a
//     bijection onto the live heap tuples (VerifyIntegrity), and
//   - the reopened database keeps working (more transactions commit).
//
// The oracle is exact because the *writing* workload is single-threaded
// and seeded: the harness mirrors every committed transaction's effect in
// memory and compares the recovered database against it key by key. Beside
// the writer, snapshot readers (Options.Readers) run lock-free MVCC read
// transactions: each sums every account, teller and branch balance inside
// one transaction and checks that the three totals describe the committed
// prefix of the workload the snapshot was pinned at — a torn read (a cut
// through the middle of a transaction) or any other total fails the run.
//
// Writer and readers are programs of internal/interleave, stepped one
// statement at a time from one goroutine: a reader reads a few rows per
// statement, so one snapshot spans many writer commits, and the seed fixes
// every device operation, the readers' misses and evictions included. The
// fault point K of a sweep is therefore the K-th operation of the
// enumerated run, readers and all.
package crash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ipa"
	"ipa/internal/interleave"
)

// Tuple layout of the harness tables: int64 key at offset 0, int64
// balance at offset 8. (Recovery no longer needs the key embedded in the
// tuple — indexes are recovered from their own entry pages and the WAL —
// but the oracle reads both fields back to verify them.)
const (
	keyOffset     = 0
	balanceOffset = 8
	// historyAccountOffset is where history rows store their account id;
	// it coincides with balanceOffset numerically but names a different
	// field of a different layout (txn writes the account id there).
	historyAccountOffset = 8
	accountSize          = 64
	historySize          = 48

	initialBalance = int64(1_000_000_007)
	loadBatch      = 32

	// numBranches and numTellers size the TPC-B style schema beside
	// Options.Accounts.
	numBranches = 4
	numTellers  = 20
	// auditRows is how many rows a snapshot reader sums per statement: an
	// audit of the default schema takes about a hundred statements, over
	// which the writer commits some twenty transactions.
	auditRows = 4
)

// faultModes are the fault modes a sweep applies at every tested point.
var faultModes = [...]ipa.FaultMode{ipa.CrashBefore, ipa.CrashTorn, ipa.CrashAfter}

// Options configure a torture sweep. DefaultOptions is the one list of
// their defaults; callers start from it.
type Options struct {
	// DB is the engine configuration under test (write mode, scheme,
	// flash mode, device sizing, chips). The Faults field is overwritten
	// by the harness.
	DB ipa.Config
	// Accounts sizes the accounts table.
	Accounts int
	// Ops is the number of transactions attempted per run.
	Ops int
	// Seed drives the deterministic transaction mix.
	Seed int64
	// Sample bounds the fault points tested per mode, spread evenly over
	// the enumeration (0 tests every point — the exhaustive sweep).
	Sample int
	// PostOps is the number of extra transactions committed on the
	// reopened database to prove it stays usable.
	PostOps int
	// Readers is the number of snapshot-reader programs interleaved with
	// the writer once the schema is loaded, auditing TPC-B conservation
	// (zero or negative disables them). Readers use lock-free MVCC reads
	// only, so the single-writer oracle stays exact.
	Readers int
}

// DefaultOptions returns a small-device configuration whose exhaustive
// sweep finishes quickly while still exercising evictions, in-place
// appends, garbage collection and group commit.
func DefaultOptions() Options {
	return Options{
		DB: ipa.Config{
			PageSize:        2048,
			Blocks:          12,
			PagesPerBlock:   16,
			BufferPoolPages: 8, // small pool: evictions (and appends) on almost every transaction
			WriteMode:       ipa.IPANativeFlash,
			Scheme:          ipa.Scheme{N: 2, M: 4},
			FlashMode:       ipa.PSLC,
			Seed:            1,
			// About every 24th writer transaction checkpoints as it
			// commits. Each checkpoint adds its own fault points to the
			// enumeration — the dirty-page flushes, the WAL flush of the
			// checkpoint record, the catalog page program and the
			// segment-recycle step — so the sweep proves recovery from a
			// crash at any of them, right after a durable commit, and that
			// recovery restarts from the checkpoint rather than LSN 0.
			CheckpointEveryBytes: 12 << 10,
		},
		Accounts: 400,
		Ops:      220,
		Seed:     7,
		PostOps:  8,
		Readers:  2,
	}
}

// RecoverySummary aggregates the Reopen cost over a sweep's runs — the
// time-to-recover evidence behind the fuzzy-checkpoint work.
type RecoverySummary struct {
	Recoveries     int           `json:"recoveries"`      // Reopen calls that succeeded
	FromCheckpoint int           `json:"from_checkpoint"` // recoveries that restarted from a checkpoint, not LSN 0
	Wall           time.Duration `json:"wall_ns"`         // total wall-clock time spent recovering
	Virtual        time.Duration `json:"virtual_ns"`      // total virtual (device) recovery time
	PagesScanned   uint64        `json:"pages_scanned"`   // physical pages the FTL rebuilds inspected
	RecordsRedone  uint64        `json:"records_redone"`  // redo/compensation/undo operations replayed
}

// Result summarises a sweep.
type Result struct {
	FaultPoints int  // enumerated fault points of the reference run
	Runs        int  // crash-recover-verify cycles executed
	Crashes     int  // runs in which the fault actually fired
	GCCovered   bool // some crash happened after garbage collection ran
	Checkpoints int  // fuzzy checkpoints completed across all runs
	CkptCovered bool // some crash happened after a checkpoint completed
	Audits      int  // snapshot-reader audits passed before the crashes
	Recovery    RecoverySummary
	Failures    []string
}

// Failed reports whether any invariant was violated.
func (r Result) Failed() bool { return len(r.Failures) > 0 }

// oracle mirrors the state every committed transaction produced. The
// loaded counters record how many rows of each table were inserted by
// batches whose commit succeeded — rows beyond them must be absent after
// recovery (their load batch never committed).
type oracle struct {
	accounts []int64
	tellers  []int64
	branches []int64
	loadedA  int
	loadedT  int
	loadedB  int
	history  map[int64][2]int64 // history key -> (account, delta)
	liveHist []int64            // committed, not-yet-deleted history keys in insertion order
	nextHist int64
	cum      int64 // the committed transactions' TPC-B delta sum
}

func newOracle(o Options) *oracle {
	ora := &oracle{
		accounts: make([]int64, o.Accounts),
		tellers:  make([]int64, numTellers),
		branches: make([]int64, numBranches),
		history:  make(map[int64][2]int64),
	}
	for i := range ora.accounts {
		ora.accounts[i] = initialBalance
	}
	for i := range ora.tellers {
		ora.tellers[i] = initialBalance
	}
	for i := range ora.branches {
		ora.branches[i] = initialBalance
	}
	return ora
}

// driver runs the workload against one database instance.
type driver struct {
	opts   Options
	db     *ipa.DB
	ora    *oracle
	loaded bool
	audits int // successful snapshot-reader audit passes

	accounts *ipa.Table
	tellers  *ipa.Table
	branches *ipa.Table
	history  *ipa.Table
}

func newDriver(cfg ipa.Config, o Options) (*driver, error) {
	db, err := ipa.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &driver{opts: o, db: db, ora: newOracle(o)}, nil
}

func putKey(row []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(row[off:], uint64(v))
}

func getKey(row []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(row[off:]))
}

func fillRow(row []byte, seed int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := 16; i < len(row); i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		row[i] = byte(x >> 56)
	}
}

// load creates the schema and populates it through transactions (crash
// recovery only covers logged work), committing in small batches so load
// crashes leave a recoverable prefix.
//
// Two secondary indexes are created before any row exists, so every one
// of their maintenance operations is transactional and enumerable as a
// fault point: accounts are indexed by balance (every TPC-B update moves
// the entry — the update-ripple path), history rows by their account
// (insert/delete churn).
func (d *driver) load() error {
	var err error
	if d.accounts, err = d.db.CreateTable("accounts", accountSize); err != nil {
		return err
	}
	if d.tellers, err = d.db.CreateTable("tellers", accountSize); err != nil {
		return err
	}
	if d.branches, err = d.db.CreateTable("branches", accountSize); err != nil {
		return err
	}
	if d.history, err = d.db.CreateTableWithScheme("history", historySize, ipa.Scheme{}); err != nil {
		return err
	}
	if _, err = d.accounts.CreateSecondaryIndex("balance", ipa.Int64Field(balanceOffset)); err != nil {
		return err
	}
	if _, err = d.history.CreateSecondaryIndex("by_account", ipa.Int64Field(historyAccountOffset)); err != nil {
		return err
	}
	load := func(t *ipa.Table, n int, loaded *int) error {
		for start := 0; start < n; start += loadBatch {
			end := start + loadBatch
			if end > n {
				end = n
			}
			tx := d.db.Begin()
			for i := start; i < end; i++ {
				row := make([]byte, accountSize)
				fillRow(row, int64(i)+int64(t.ID())*1000)
				putKey(row, keyOffset, int64(i))
				putKey(row, balanceOffset, initialBalance)
				if err := tx.Insert(t, int64(i), row); err != nil {
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
			*loaded = end
		}
		return nil
	}
	if err := load(d.branches, numBranches, &d.ora.loadedB); err != nil {
		return err
	}
	if err := load(d.tellers, numTellers, &d.ora.loadedT); err != nil {
		return err
	}
	if err := load(d.accounts, d.opts.Accounts, &d.ora.loadedA); err != nil {
		return err
	}
	d.loaded = true
	return nil
}

// txn returns the statements of the writer's next transaction — usually
// the TPC-B style update/update/update/insert, but every sixth (once
// history rows exist) a transactional delete of a committed history row, so
// the sweep also enumerates the index-delete and tuple-delete fault points.
// Its last statement commits and mirrors the transaction in the oracle if
// (and only if) the commit succeeded; a commit that crosses
// CheckpointEveryBytes takes the checkpoint first, so its fault points land
// at fixed positions in the enumeration.
func (d *driver) txn(r *rand.Rand) []interleave.Step {
	if r.Intn(6) == 0 && len(d.ora.liveHist) > 0 {
		idx := r.Intn(len(d.ora.liveHist))
		hid := d.ora.liveHist[idx]
		return []interleave.Step{
			func(tx *ipa.Tx) error { return tx.Delete(d.history, hid) },
			func(tx *ipa.Tx) error {
				if err := tx.Commit(); err != nil {
					return err
				}
				d.ora.liveHist = append(d.ora.liveHist[:idx], d.ora.liveHist[idx+1:]...)
				delete(d.ora.history, hid)
				return nil
			},
		}
	}
	a := r.Intn(d.opts.Accounts)
	t := r.Intn(numTellers)
	b := r.Intn(numBranches)
	delta := int64(r.Intn(1999999) - 999999)
	d.ora.nextHist++
	hid := d.ora.nextHist
	update := func(tbl *ipa.Table, key int, cur []int64) interleave.Step {
		return func(tx *ipa.Tx) error {
			row := make([]byte, 8)
			putKey(row, 0, cur[key]+delta)
			return tx.UpdateAt(tbl, int64(key), balanceOffset, row)
		}
	}
	return []interleave.Step{
		update(d.accounts, a, d.ora.accounts),
		update(d.tellers, t, d.ora.tellers),
		update(d.branches, b, d.ora.branches),
		func(tx *ipa.Tx) error {
			hrow := make([]byte, historySize)
			fillRow(hrow, hid)
			putKey(hrow, keyOffset, hid)
			putKey(hrow, historyAccountOffset, int64(a))
			putKey(hrow, 16, delta)
			return tx.Insert(d.history, hid, hrow)
		},
		func(tx *ipa.Tx) error {
			if err := tx.Commit(); err != nil {
				return err
			}
			d.ora.cum += delta
			d.ora.accounts[a] += delta
			d.ora.tellers[t] += delta
			d.ora.branches[b] += delta
			d.ora.history[hid] = [2]int64{int64(a), delta}
			d.ora.liveHist = append(d.ora.liveHist, hid)
			return nil
		},
	}
}

// run executes ops writer transactions drawn from seed and, once the
// schema is loaded, readers snapshot-reader programs beside the writer, all
// on one goroutine in a schedule drawn from the same seed: the run, every
// device operation of it, is a function of the driver's state and the
// arguments.
// The first error ends the run at once: an injected power cut, wherever it
// lands, or an audit violation.
func (d *driver) run(seed int64, ops, readers int) error {
	r := rand.New(rand.NewSource(seed))
	done, writing := 0, true
	progs := []interleave.Program{func() []interleave.Step {
		if done == ops {
			writing = false
			return nil
		}
		done++
		return d.txn(r)
	}}
	for i := 0; i < readers && d.loaded; i++ {
		progs = append(progs, d.reader(&writing))
	}
	_, err := interleave.Run(d.db, seed, progs...)
	return err
}

// errTornSnapshot tags an invariant violation observed by a snapshot
// reader.
var errTornSnapshot = errors.New("crash: snapshot reader observed inconsistent state")

// reader returns a snapshot-reader program. Each of its transactions — an
// audit — sums every account, teller and branch balance, auditRows Gets per
// statement, all at the one snapshot its first Get pins, and its last
// statement aborts (a read-only abort touches no device) and checks that
// each of the three delta sums is the oracle's delta sum when the snapshot
// was pinned: the committed transactions, no more and no fewer. It starts
// audits until the writer is done (*writing false), and at least one.
func (d *driver) reader(writing *bool) interleave.Program {
	var sums [3]int64
	var want int64
	var steps []interleave.Step
	tables := []struct {
		t *ipa.Table
		n int
	}{{d.accounts, d.opts.Accounts}, {d.tellers, numTellers}, {d.branches, numBranches}}
	for i, tb := range tables {
		for lo := 0; lo < tb.n; lo += auditRows {
			steps = append(steps, func(tx *ipa.Tx) error {
				if i == 0 && lo == 0 {
					sums, want = [3]int64{}, d.ora.cum
				}
				for k := lo; k < min(lo+auditRows, tb.n); k++ {
					row, err := tx.Get(tb.t, int64(k))
					if err != nil {
						return err
					}
					sums[i] += getKey(row, balanceOffset) - initialBalance
				}
				return nil
			})
		}
	}
	passes := 0
	steps = append(steps, func(tx *ipa.Tx) error {
		if err := tx.Abort(); err != nil {
			return err
		}
		if sums != [3]int64{want, want, want} {
			return fmt.Errorf("%w: account/teller/branch delta sums %v at a snapshot of delta sum %d", errTornSnapshot, sums, want)
		}
		passes++
		d.audits++
		return nil
	})
	return func() []interleave.Step {
		if passes > 0 && !*writing {
			return nil
		}
		return steps
	}
}

// verify compares a (re)opened database against the oracle.
func verify(db *ipa.DB, o Options, ora *oracle) error {
	if err := db.VerifyIntegrity(); err != nil {
		return fmt.Errorf("integrity: %w", err)
	}
	tables := []struct {
		name     string
		balances []int64
		loaded   int
	}{
		{"accounts", ora.accounts, ora.loadedA},
		{"tellers", ora.tellers, ora.loadedT},
		{"branches", ora.branches, ora.loadedB},
	}
	for _, tb := range tables {
		t, ok := db.Table(tb.name)
		if !ok {
			return fmt.Errorf("table %s missing after reopen", tb.name)
		}
		for key, want := range tb.balances {
			row, err := t.Get(int64(key))
			if key >= tb.loaded {
				// The load batch of this row never committed: it must be
				// invisible after recovery.
				if err == nil {
					return fmt.Errorf("%s key %d from an uncommitted load batch resurrected", tb.name, key)
				}
				if !errors.Is(err, ipa.ErrKeyNotFound) {
					return fmt.Errorf("%s key %d: unexpected error %w", tb.name, key, err)
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("%s key %d: %w", tb.name, key, err)
			}
			if got := getKey(row, balanceOffset); got != want {
				return fmt.Errorf("%s key %d: balance %d, committed state says %d", tb.name, key, got, want)
			}
			if got := getKey(row, keyOffset); got != int64(key) {
				return fmt.Errorf("%s key %d: stored key reads %d", tb.name, key, got)
			}
		}
	}
	hist, ok := db.Table("history")
	if !ok {
		return fmt.Errorf("history table missing after reopen")
	}
	for hid := int64(1); hid <= ora.nextHist; hid++ {
		want, committed := ora.history[hid]
		row, err := hist.Get(hid)
		if committed {
			if err != nil {
				return fmt.Errorf("committed history row %d lost: %w", hid, err)
			}
			if getKey(row, historyAccountOffset) != want[0] || getKey(row, 16) != want[1] {
				return fmt.Errorf("history row %d corrupted", hid)
			}
		} else if err == nil {
			return fmt.Errorf("uncommitted history row %d resurrected", hid)
		} else if !errors.Is(err, ipa.ErrKeyNotFound) {
			return fmt.Errorf("history row %d: unexpected error %w", hid, err)
		}
	}
	if got := hist.Count(); got != uint64(len(ora.history)) {
		return fmt.Errorf("history count %d, committed state says %d", got, len(ora.history))
	}
	// The secondary access path must agree with the committed state:
	// every live history row is reachable under its account id — one
	// lookup per account, not per row. (VerifyIntegrity above already
	// cross-checked both secondary indexes entry-by-entry against the
	// heap.)
	perAccount := make(map[int64]map[int64]bool)
	for hid, want := range ora.history {
		set := perAccount[want[0]]
		if set == nil {
			set = make(map[int64]bool)
			perAccount[want[0]] = set
		}
		set[hid] = true
	}
	for account, hids := range perAccount {
		rows, err := hist.GetBySecondary("by_account", account)
		if err != nil {
			return fmt.Errorf("history by_account %d: %w", account, err)
		}
		for _, row := range rows {
			delete(hids, getKey(row, keyOffset))
		}
		for hid := range hids {
			return fmt.Errorf("history row %d not reachable via by_account %d", hid, account)
		}
	}
	return nil
}

// isPowerLoss reports whether err is (or wraps) the injected power cut.
func isPowerLoss(err error) bool { return errors.Is(err, ipa.ErrPowerLost) }

// samplePoints spreads up to sample indices evenly over [1, total].
func samplePoints(total uint64, sample int) []uint64 {
	if total == 0 {
		return nil
	}
	if sample <= 0 || uint64(sample) >= total {
		out := make([]uint64, 0, total)
		for k := uint64(1); k <= total; k++ {
			out = append(out, k)
		}
		return out
	}
	if sample == 1 {
		return []uint64{(total + 1) / 2}
	}
	out := make([]uint64, 0, sample)
	for i := 0; i < sample; i++ {
		k := 1 + uint64(i)*(total-1)/uint64(sample-1)
		if n := len(out); n > 0 && out[n-1] == k {
			continue
		}
		out = append(out, k)
	}
	return out
}

// Enumerate counts the fault points of the reference run (load plus Ops
// transactions) without crashing.
func Enumerate(o Options) (uint64, error) {
	plan := ipa.NewFaultPlan(0, ipa.CrashBefore)
	cfg := o.DB
	cfg.Faults = plan
	d, err := newDriver(cfg, o)
	if err != nil {
		return 0, err
	}
	defer d.db.Close()
	if err := d.load(); err != nil {
		return 0, err
	}
	if err := d.run(o.Seed, o.Ops, o.Readers); err != nil {
		return 0, err
	}
	return plan.Ops(), nil
}

// PointOutcome describes one crash-recover-verify cycle.
type PointOutcome struct {
	GCRuns      uint64            // garbage-collection runs before the crash
	Tripped     bool              // whether the fault actually fired
	Checkpoints int               // fuzzy checkpoints the pre-crash run completed
	Audits      int               // snapshot-reader audits the pre-crash run passed
	Recovery    ipa.RecoveryStats // cost of the successful Reopen (zero until it succeeds)
}

// RunPointDetail runs the workload once, crashing at fault point k with the
// given mode, then reopens, verifies and reports the cycle.
func RunPointDetail(o Options, k uint64, mode ipa.FaultMode) (PointOutcome, error) {
	var out PointOutcome
	plan := ipa.NewFaultPlan(k, mode)
	cfg := o.DB
	cfg.Faults = plan
	d, derr := newDriver(cfg, o)
	if derr != nil {
		return out, derr
	}
	runErr := d.load()
	if runErr == nil {
		runErr = d.run(o.Seed, o.Ops, o.Readers)
	}
	out.Tripped = plan.Tripped()
	// The cut belongs to the pre-crash run: a point past its last operation
	// must not fire inside the post-recovery transactions.
	plan.Disarm()
	out.Checkpoints, out.Audits = int(d.db.Stats().Checkpoints), d.audits
	if runErr != nil && !isPowerLoss(runErr) {
		d.db.Close()
		return out, fmt.Errorf("workload: %w", runErr)
	}
	stats := d.db.Stats()
	out.GCRuns = stats.GCRuns
	img := d.db.Crash()
	db2, rerr := ipa.Reopen(img)
	if rerr != nil {
		return out, fmt.Errorf("reopen: %w", rerr)
	}
	defer db2.Close()
	out.Recovery = db2.RecoveryStats()
	if verr := verify(db2, o, d.ora); verr != nil {
		return out, verr
	}
	// The recovered database must keep working.
	post := &driver{opts: o, db: db2, ora: d.ora, loaded: d.loaded}
	var ok bool
	if post.accounts, ok = db2.Table("accounts"); !ok {
		return out, fmt.Errorf("accounts table missing after reopen")
	}
	post.tellers, _ = db2.Table("tellers")
	post.branches, _ = db2.Table("branches")
	post.history, _ = db2.Table("history")
	if d.loaded {
		if perr := post.run(o.Seed+int64(k)+1, o.PostOps, o.Readers); perr != nil {
			return out, fmt.Errorf("post-recovery transaction: %w", perr)
		}
		if verr := verify(db2, o, d.ora); verr != nil {
			return out, fmt.Errorf("after post-recovery work: %w", verr)
		}
	}
	return out, nil
}

// Sweep enumerates the fault points of the reference run and executes a
// crash-recover-verify cycle at every sampled point for every mode.
func Sweep(o Options) (Result, error) {
	total, err := Enumerate(o)
	if err != nil {
		return Result{}, fmt.Errorf("crash: enumerate: %w", err)
	}
	res := Result{FaultPoints: int(total)}
	points := samplePoints(total, o.Sample)
	for _, mode := range faultModes {
		for _, k := range points {
			out, err := RunPointDetail(o, k, mode)
			res.Runs++
			res.Checkpoints += out.Checkpoints
			res.Audits += out.Audits
			if out.Tripped {
				res.Crashes++
				if out.GCRuns > 0 {
					res.GCCovered = true
				}
				if out.Checkpoints > 0 {
					res.CkptCovered = true
				}
			}
			if out.Recovery != (ipa.RecoveryStats{}) {
				res.Recovery.Recoveries++
				if out.Recovery.CheckpointLSN > 0 {
					res.Recovery.FromCheckpoint++
				}
				res.Recovery.Wall += out.Recovery.Wall
				res.Recovery.Virtual += out.Recovery.Virtual
				res.Recovery.PagesScanned += uint64(out.Recovery.PagesScanned)
				res.Recovery.RecordsRedone += out.Recovery.RecordsRedone
			}
			if err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("point %d/%d (%v): %v", k, total, mode, err))
			}
		}
	}
	return res, nil
}
