// Package chaos is the continuous-invariant torture harness: it boots the
// real ipaserver front end on an engine with a live fault plan, drives
// money-transfer traffic over the wire, and — while the system runs —
// injects transient faults (device latency spikes, per-chip stalls and
// wall-clock-scheduled power cuts followed by recovery and restart) as
// concurrent checker goroutines audit the invariants the paper's
// durability argument rests on:
//
//   - Ledger conservation: the sum of all account balances, read in one
//     MVCC snapshot, never changes — transfers move money, they do not
//     create it, and neither may a crash.
//   - Index bijection: VerifyIntegrity (primary key ↔ heap ↔ secondary
//     entries) holds at every quiesce point and after every recovery.
//   - Monotone commit timestamps: the commit watermark never moves
//     backwards within an epoch, and the recovered watermark is at least
//     the MaxCommitTS of the last durable checkpoint.
//
// Unlike internal/crash, which replays deterministic fault points offline,
// chaos runs in wall-clock time against the serving stack: cuts land
// mid-pipeline, recovery races reconnecting clients, and the checkers
// never stop. The fault taxonomy and the scheduling model are documented
// in docs/DESIGN_CHAOS.md.
package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ipa"
	"ipa/internal/server"
	"ipa/internal/workload"
	"ipa/ipaclient"
)

// The ledger's tuple layout and money, and the cost of a latency spike.
const (
	// tupleSize is the account tuple size.
	tupleSize = 96
	// balanceOffset is where the 8-byte little-endian balance lives in an
	// account tuple (after the key copy, like the OLTP drivers).
	balanceOffset = 8
	// initialBalance is every account's seed money: the conserved total is
	// Accounts × initialBalance.
	initialBalance = int64(1_000_000)
	// spikeVirtual is the virtual time a latency spike charges per chip
	// operation.
	spikeVirtual = 200 * time.Microsecond
)

// Options configures a chaos session. DefaultOptions is the one list of
// their defaults; callers start from it.
type Options struct {
	// Duration is the wall-clock session length.
	Duration time.Duration
	// Workers is the number of wire-level transfer connections.
	Workers int
	// Accounts is the ledger size.
	Accounts int
	// PowerCuts schedules this many wall-clock power cuts, evenly spread
	// across Duration. Each cut kills the device mid-traffic, crashes the
	// engine, recovers from the surviving image and restarts the server
	// on the same address.
	PowerCuts int
	// SpikeEvery injects a device-wide latency spike with this period
	// (0 disables); each spike lasts SpikeLen of wall time.
	SpikeEvery time.Duration
	SpikeLen   time.Duration
	// StallEvery freezes one chip (round-robin) for StallLen per period
	// (0 disables).
	StallEvery time.Duration
	StallLen   time.Duration
	// AuditEvery is the period of the ledger and watermark checkers;
	// VerifyEvery the period of the quiesced VerifyIntegrity checker.
	AuditEvery  time.Duration
	VerifyEvery time.Duration
	// Engine is the engine configuration (Faults is always replaced by the
	// session's own plan). A zero CheckpointEveryBytes becomes a small
	// checkpoint interval so the durable watermark floor advances during
	// the session.
	Engine ipa.Config
	Seed   int64
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// DefaultOptions returns a session sized for a local run: ~15 seconds,
// 3 power cuts, every fault class enabled. The caller chooses the Engine.
func DefaultOptions() Options {
	return Options{
		Duration:    15 * time.Second,
		Workers:     4,
		Accounts:    512,
		PowerCuts:   3,
		SpikeEvery:  2 * time.Second,
		SpikeLen:    150 * time.Millisecond,
		StallEvery:  1700 * time.Millisecond,
		StallLen:    100 * time.Millisecond,
		AuditEvery:  250 * time.Millisecond,
		VerifyEvery: 1200 * time.Millisecond,
		Seed:        1,
	}
}

// Report summarises a session.
type Report struct {
	Wall          time.Duration `json:"wall_ns"`
	Ops           uint64        `json:"ops"`
	Conflicts     uint64        `json:"conflicts"`
	Retries       uint64        `json:"retries"`
	Reconnects    uint64        `json:"reconnects"`
	PowerCuts     int           `json:"power_cuts"`
	Restarts      int           `json:"restarts"`
	SpikedOps     uint64        `json:"spiked_ops"`
	StalledOps    uint64        `json:"stalled_ops"`
	LedgerAudits  int           `json:"ledger_audits"`
	TSChecks      int           `json:"ts_checks"`
	VerifyPasses  int           `json:"verify_passes"`
	RecoveryRedos uint64        `json:"recovery_redo_records"`
	Violations    []string      `json:"violations"`
}

// Failed reports whether any invariant was violated.
func (r Report) Failed() bool { return len(r.Violations) > 0 }

// session is one running chaos harness.
type session struct {
	o    Options
	plan *ipa.FaultPlan

	// mu guards the (db, srv) epoch: the power-cutter holds it
	// exclusively while swapping, in-process checkers hold it shared.
	mu    sync.RWMutex
	db    *ipa.DB
	srv   *server.Server
	epoch int64

	// addr is the concrete TCP address, stable across restarts.
	addr string

	// gate is the quiesce gate: wire workers hold it shared for the
	// length of one transaction, the integrity checker holds it
	// exclusively so VerifyIntegrity never observes a worker transaction
	// in flight.
	gate sync.RWMutex

	chips int
	stop  atomic.Bool

	// Fault-injection state read by the device op hook.
	spikeUntil atomic.Int64 // wall ns
	stallChip  atomic.Int64 // chip currently stalled (-1 = none)
	stallUntil atomic.Int64 // wall ns

	// durableFloor is the highest MaxCommitTS read from a durable
	// checkpoint: the recovered watermark may never fall below it.
	durableFloor atomic.Uint64

	ops, conflicts, retries, reconnects atomic.Uint64
	spiked, stalled                     atomic.Uint64
	audits, tsChecks, verifies          atomic.Uint64

	vmu        sync.Mutex
	violations []string

	logf func(string, ...any)
}

// violate records one invariant violation.
func (s *session) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.vmu.Lock()
	s.violations = append(s.violations, msg)
	s.vmu.Unlock()
	s.logf("chaos: VIOLATION: %s", msg)
}

// Run executes one chaos session and returns its report.
func Run(o Options) (Report, error) {
	if o.Duration <= 0 || o.Workers <= 0 || o.Accounts <= 0 || o.AuditEvery <= 0 || o.VerifyEvery <= 0 {
		return Report{}, fmt.Errorf("chaos: Duration (%s), Workers (%d), Accounts (%d), AuditEvery (%s) and VerifyEvery (%s) must be positive",
			o.Duration, o.Workers, o.Accounts, o.AuditEvery, o.VerifyEvery)
	}
	s := &session{o: o, logf: o.Logf}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.stallChip.Store(-1)
	s.plan = ipa.NewFaultPlan(0, ipa.CrashBefore) // passive: KillPower only

	if err := s.boot(); err != nil {
		return Report{}, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(o.Seed))

	// Wire transfer workers.
	for i := 0; i < o.Workers; i++ {
		wg.Add(1)
		seed := rng.Int63()
		go func(i int, seed int64) {
			defer wg.Done()
			s.worker(i, seed)
		}(i, seed)
	}
	// Continuous checkers.
	wg.Add(3)
	go func() { defer wg.Done(); s.ledgerChecker() }()
	go func() { defer wg.Done(); s.watermarkChecker() }()
	go func() { defer wg.Done(); s.integrityChecker() }()
	// Transient-fault injectors.
	if o.SpikeEvery > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); s.spiker() }()
	}
	if o.StallEvery > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); s.staller() }()
	}

	// Wall-clock-scheduled power cuts, evenly spread across the session.
	rep := Report{}
	for i := 1; i <= o.PowerCuts; i++ {
		target := start.Add(o.Duration * time.Duration(i) / time.Duration(o.PowerCuts+1))
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		redo, err := s.powerCut(i)
		if err != nil {
			s.stop.Store(true)
			wg.Wait()
			return rep, err
		}
		rep.PowerCuts++
		rep.Restarts++
		rep.RecoveryRedos += redo
	}
	if d := time.Until(start.Add(o.Duration)); d > 0 {
		time.Sleep(d)
	}
	s.stop.Store(true)
	wg.Wait()

	// Final quiesced audit on the surviving epoch, then a graceful drain.
	s.mu.RLock()
	db, srv := s.db, s.srv
	s.mu.RUnlock()
	if err := db.VerifyIntegrity(); err != nil {
		s.violate("final VerifyIntegrity: %v", err)
	} else {
		s.verifies.Add(1)
	}
	if sum, n, err := s.ledgerSum(db); err != nil {
		s.violate("final ledger read: %v", err)
	} else if want := int64(o.Accounts) * initialBalance; sum != want {
		s.violate("final ledger sum %d over %d accounts, want %d", sum, n, want)
	} else {
		s.audits.Add(1)
	}
	srv.Close()

	rep.Wall = time.Since(start)
	rep.Ops = s.ops.Load()
	rep.Conflicts = s.conflicts.Load()
	rep.Retries = s.retries.Load()
	rep.Reconnects = s.reconnects.Load()
	rep.SpikedOps = s.spiked.Load()
	rep.StalledOps = s.stalled.Load()
	rep.LedgerAudits = int(s.audits.Load())
	rep.TSChecks = int(s.tsChecks.Load())
	rep.VerifyPasses = int(s.verifies.Load())
	s.vmu.Lock()
	rep.Violations = append(rep.Violations, s.violations...)
	s.vmu.Unlock()
	return rep, nil
}

// boot opens the engine, preloads the ledger durably, and starts the
// server front end.
func (s *session) boot() error {
	cfg := s.o.Engine
	cfg.Faults = s.plan
	if cfg.CheckpointEveryBytes == 0 {
		// Small enough that checkpoints (and with them the durable
		// watermark floor) advance several times per session.
		cfg.CheckpointEveryBytes = 256 << 10
	}
	db, err := ipa.Open(cfg)
	if err != nil {
		return fmt.Errorf("chaos: open: %w", err)
	}
	s.chips = db.Config().Chips
	t, err := db.CreateTable("accounts", tupleSize)
	if err != nil {
		db.Close()
		return fmt.Errorf("chaos: create: %w", err)
	}
	row := make([]byte, tupleSize)
	ld := workload.NewLoader(db)
	for k := 0; k < s.o.Accounts && err == nil; k++ {
		for i := range row {
			row[i] = byte(k + i)
		}
		putInt64(row, 0, int64(k))
		putInt64(row, balanceOffset, initialBalance)
		err = ld.Insert(t, int64(k), row)
	}
	if err == nil {
		err = ld.Commit()
	}
	if err != nil {
		db.Close()
		return fmt.Errorf("chaos: preload: %w", err)
	}
	// The checkpoint flushes the preload out and establishes the first
	// durable watermark floor.
	if _, err := db.Checkpoint(); err != nil {
		db.Close()
		return fmt.Errorf("chaos: checkpoint: %w", err)
	}
	s.noteDurableFloor(db)
	s.installHook(db)

	srv := server.New(db, server.Config{Addr: "127.0.0.1:0", Logf: nil})
	if err := srv.Start(); err != nil {
		db.Close()
		return fmt.Errorf("chaos: server: %w", err)
	}
	s.db, s.srv = db, srv
	s.addr = srv.Addr().String()
	s.logf("chaos: serving on %s (%d accounts, %d workers, %d cuts over %s)",
		s.addr, s.o.Accounts, s.o.Workers, s.o.PowerCuts, s.o.Duration)
	return nil
}

// installHook wires the transient-fault injector into the device of the
// given epoch's engine.
func (s *session) installHook(db *ipa.DB) {
	db.SetDeviceOpHook(func(chip int, op ipa.FaultOp) {
		now := time.Now().UnixNano()
		if now < s.spikeUntil.Load() {
			// Device-wide latency spike: charge virtual time (visible in
			// throughput figures) and stall the op briefly in wall time.
			db.AdvanceClock(spikeVirtual)
			time.Sleep(20 * time.Microsecond)
			s.spiked.Add(1)
		}
		if int64(chip) == s.stallChip.Load() && now < s.stallUntil.Load() {
			// Per-chip stall: only callers touching this chip wait.
			time.Sleep(50 * time.Microsecond)
			s.stalled.Add(1)
		}
	})
}

// noteDurableFloor raises the durable watermark floor from the engine's
// checkpoint state.
func (s *session) noteDurableFloor(db *ipa.DB) {
	cs, ok, err := db.CheckpointState()
	if err != nil || !ok {
		return
	}
	for {
		cur := s.durableFloor.Load()
		if cs.MaxCommitTS <= cur || s.durableFloor.CompareAndSwap(cur, cs.MaxCommitTS) {
			return
		}
	}
}

// powerCut kills the device mid-traffic, crashes the engine, recovers
// from the surviving image, re-checks every invariant on the recovered
// state and restarts the server on the same address.
func (s *session) powerCut(i int) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	floor := s.durableFloor.Load()
	s.logf("chaos: power cut %d (durable watermark floor %d)", i, floor)
	s.plan.KillPower()
	img := s.db.Crash()
	s.srv.Close() // hard close; the engine is already crashed

	db, err := ipa.Reopen(img)
	if err != nil {
		return 0, fmt.Errorf("chaos: reopen after cut %d: %w", i, err)
	}
	redo := db.RecoveryStats().RecordsRedone

	// Post-recovery invariants.
	if err := db.VerifyIntegrity(); err != nil {
		s.violate("cut %d: post-recovery VerifyIntegrity: %v", i, err)
	}
	if w := db.CommitWatermark(); w < floor {
		s.violate("cut %d: recovered watermark %d below durable floor %d", i, w, floor)
	}
	if sum, n, err := s.ledgerSum(db); err != nil {
		s.violate("cut %d: post-recovery ledger read: %v", i, err)
	} else if want := int64(s.o.Accounts) * initialBalance; sum != want {
		s.violate("cut %d: post-recovery ledger sum %d over %d accounts, want %d", i, sum, n, want)
	}
	s.noteDurableFloor(db)
	s.installHook(db)

	// Same listen address, so clients reconnect without rediscovery. The
	// old listener is closed; retry briefly in case the port lingers.
	srv := server.New(db, server.Config{Addr: s.addr, Logf: nil})
	for attempt := 0; ; attempt++ {
		err = srv.Start()
		if err == nil {
			break
		}
		if attempt >= 50 {
			db.Close()
			return redo, fmt.Errorf("chaos: restart server after cut %d: %w", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.db, s.srv = db, srv
	s.epoch++
	s.logf("chaos: cut %d recovered (%d records redone), serving again", i, redo)
	return redo, nil
}

// putInt64 encodes v little-endian at b[off:off+8].
func putInt64(b []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(b[off:], uint64(v))
}

// getInt64 decodes a little-endian int64 at b[off:off+8].
func getInt64(b []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(b[off:]))
}

// worker drives money transfers over the wire: BEGIN, read two accounts,
// move a random amount between them, COMMIT. Conflicts abort and retry;
// transport failures (power cuts, restarts) reconnect.
func (s *session) worker(id int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var c *ipaclient.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	for !s.stop.Load() {
		if c == nil {
			nc, err := ipaclient.Dial(s.addr)
			if err != nil {
				time.Sleep(25 * time.Millisecond)
				continue
			}
			c = nc
		}
		s.gate.RLock()
		ok, err := s.transferOnce(c, rng)
		s.gate.RUnlock()
		switch {
		case err != nil:
			// Transport-level failure: server down or connection killed
			// by a cut. Drop the connection and redial.
			c.Close()
			c = nil
			s.reconnects.Add(1)
		case ok:
			s.ops.Add(1)
		}
	}
}

// transferOnce runs one transfer transaction on an established
// connection. It returns (false, nil) for clean aborts (conflicts or
// engine errors surfaced as wire error replies) and a non-nil error only
// for transport failures.
func (s *session) transferOnce(c *ipaclient.Client, rng *rand.Rand) (bool, error) {
	a := int64(rng.Intn(s.o.Accounts))
	b := int64(rng.Intn(s.o.Accounts))
	if a == b {
		b = (b + 1) % int64(s.o.Accounts)
	}
	amount := int64(rng.Intn(1000) + 1)

	if _, err := c.DoStrings("BEGIN"); err != nil {
		return false, s.abortAfter(c, err)
	}
	// Locked reads: a plain GET is a lock-free snapshot read, and a
	// transfer computed from one could lose a concurrent update. GETFU
	// holds the record lock until COMMIT, so the balances below are
	// stable — lock ordering by key id avoids ABBA deadlocks.
	if a > b {
		a, b = b, a
	}
	av, err := c.GetForUpdate("accounts", a)
	if err != nil {
		return false, s.abortAfter(c, err)
	}
	bv, err := c.GetForUpdate("accounts", b)
	if err != nil {
		return false, s.abortAfter(c, err)
	}
	if err := c.Update("accounts", a, balanceOffset, int64Bytes(getInt64(av, balanceOffset)-amount)); err != nil {
		return false, s.abortAfter(c, err)
	}
	if err := c.Update("accounts", b, balanceOffset, int64Bytes(getInt64(bv, balanceOffset)+amount)); err != nil {
		return false, s.abortAfter(c, err)
	}
	if _, err := c.DoStrings("COMMIT"); err != nil {
		if isWireErr(err) {
			s.conflictOrRetry(err)
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// abortAfter cleans up a failed transfer: wire error replies roll the
// transaction back and count as a retryable abort (nil return); transport
// errors propagate.
func (s *session) abortAfter(c *ipaclient.Client, err error) error {
	if !isWireErr(err) {
		return err
	}
	s.conflictOrRetry(err)
	if _, aerr := c.DoStrings("ABORT"); aerr != nil && !isWireErr(aerr) {
		return aerr
	}
	return nil
}

func (s *session) conflictOrRetry(err error) {
	if ipaclient.IsCode(err, "CONFLICT") {
		s.conflicts.Add(1)
	} else {
		s.retries.Add(1)
	}
}

// isWireErr distinguishes server error replies (the connection is fine)
// from transport failures.
func isWireErr(err error) bool {
	var we *ipaclient.Error
	return errors.As(err, &we)
}

func int64Bytes(v int64) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(v))
}
