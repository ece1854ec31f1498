// Package chaos is the continuous-invariant torture harness: it boots the
// real ipaserver front end on an engine with a live fault plan, drives
// money-transfer traffic over the wire, and — while the system runs —
// injects transient faults (device latency spikes, per-chip stalls and
// wall-clock-scheduled power cuts followed by recovery and restart) and
// audits, on one tick loop, the invariants the paper's durability
// argument rests on:
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
// mid-pipeline and recovery races reconnecting clients. The goroutine
// that calls Run owns the engine and the server; only the wire workers
// run beside it. The fault taxonomy and the scheduling model are
// documented in docs/DESIGN_CHAOS.md.
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

// The ledger's tuple layout and money, and the fault schedule in ticks of
// Options.AuditEvery.
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

	// Every verifyTicks-th audit also runs VerifyIntegrity at a quiesce
	// point.
	verifyTicks = 5
	// Every spikeTicks-th tick opens a device-wide latency spike of
	// spikeLen.
	spikeTicks = 4
	spikeLen   = 100 * time.Millisecond
	// Every stallTicks-th tick stalls the next chip, round-robin, for
	// stallLen.
	stallTicks = 3
	stallLen   = 60 * time.Millisecond
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
	// AuditEvery is the tick of the session's schedule: every tick runs
	// one audit, and spikes, stalls and integrity checks open on fixed
	// multiples of it.
	AuditEvery time.Duration
	// Engine is the engine configuration (Faults is always replaced by the
	// session's own plan).
	Engine ipa.Config
	Seed   int64
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// DefaultOptions returns a session sized for a local run: ~15 seconds,
// 3 power cuts, every fault class enabled, on a device small enough that
// the ledger does not fit in the buffer pool — chaos is only interesting
// when cuts land while dirty pages, deltas and GC are in flight.
func DefaultOptions() Options {
	return Options{
		Duration:   15 * time.Second,
		Workers:    4,
		Accounts:   4096,
		PowerCuts:  3,
		AuditEvery: 250 * time.Millisecond,
		Engine: ipa.Config{
			PageSize:        4096,
			Blocks:          128,
			PagesPerBlock:   32,
			BufferPoolPages: 64,
			WriteMode:       ipa.IPANativeFlash,
			Scheme:          ipa.Scheme{N: 2, M: 4},
			FlashMode:       ipa.PSLC,
			Chips:           4,
			// Small enough that checkpoints, and with them the durable
			// watermark floor, advance several times per session.
			CheckpointEveryBytes: 256 << 10,
		},
		Seed: 1,
	}
}

// Report summarises a session.
type Report struct {
	Seed          int64         `json:"seed"`
	Wall          time.Duration `json:"wall_ns"`
	Ops           uint64        `json:"ops"`
	Conflicts     uint64        `json:"conflicts"`
	Retries       uint64        `json:"retries"`
	Reconnects    uint64        `json:"reconnects"`
	PowerCuts     int           `json:"power_cuts"`
	SpikedOps     uint64        `json:"spiked_ops"`
	StalledOps    uint64        `json:"stalled_ops"`
	Audits        int           `json:"audits"`
	VerifyPasses  int           `json:"verify_passes"`
	RecoveryRedos uint64        `json:"recovery_redo_records"`
	Violations    []string      `json:"violations"`
}

// Failed reports whether any invariant was violated.
func (r Report) Failed() bool { return len(r.Violations) > 0 }

// session is one running chaos harness. The goroutine that calls Run owns
// db, srv, rep and the audit state; the wire workers and the device op
// hook touch only the atomics and the gate.
type session struct {
	o    Options
	plan *ipa.FaultPlan
	db   *ipa.DB
	srv  *server.Server
	rep  Report

	// addr is the concrete TCP address, stable across restarts.
	addr string

	// gate is the quiesce gate: wire workers hold it shared for the
	// length of one transaction, and an audit that verifies holds it
	// exclusively so VerifyIntegrity never observes a worker transaction
	// in flight.
	gate sync.RWMutex

	stop atomic.Bool

	// Fault-injection state read by the device op hook.
	spikeUntil atomic.Int64 // wall ns
	stallChip  atomic.Int64 // chip the current or last stall froze
	stallUntil atomic.Int64 // wall ns

	// floor is the highest MaxCommitTS read from a durable checkpoint:
	// the recovered watermark may never fall below it. lastW is the
	// watermark the previous audit of this epoch read.
	floor, lastW uint64

	ops, conflicts, retries, reconnects atomic.Uint64
	spiked, stalled                     atomic.Uint64

	logf func(string, ...any)
}

// violate records one invariant violation.
func (s *session) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.rep.Violations = append(s.rep.Violations, msg)
	s.logf("chaos: VIOLATION: %s", msg)
}

// Run executes one chaos session and returns its report.
func Run(o Options) (Report, error) {
	if o.Duration <= 0 || o.Workers <= 0 || o.Accounts <= 0 || o.AuditEvery <= 0 || o.PowerCuts < 0 {
		return Report{}, fmt.Errorf("chaos: Duration (%s), Workers (%d), Accounts (%d) and AuditEvery (%s) must be positive, PowerCuts (%d) not negative",
			o.Duration, o.Workers, o.Accounts, o.AuditEvery, o.PowerCuts)
	}
	s := &session{o: o, logf: o.Logf, rep: Report{Seed: o.Seed}}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if err := s.boot(); err != nil {
		return Report{}, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(o.Seed))
	for i := 0; i < o.Workers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s.worker(seed)
		}(rng.Int63())
	}
	err := s.schedule(start)
	s.stop.Store(true)
	wg.Wait()
	if err != nil {
		return s.rep, err
	}

	// The surviving epoch's last audit, then a hard close.
	s.audit("end", true)
	s.srv.Close()

	s.rep.Wall = time.Since(start)
	s.rep.Ops = s.ops.Load()
	s.rep.Conflicts = s.conflicts.Load()
	s.rep.Retries = s.retries.Load()
	s.rep.Reconnects = s.reconnects.Load()
	s.rep.SpikedOps = s.spiked.Load()
	s.rep.StalledOps = s.stalled.Load()
	return s.rep, nil
}

// schedule is the session's one tick loop. It sleeps until the earlier of
// the next tick and the next power cut, and runs that. A tick opens the
// spikes and stalls that fall on it and audits; a cut fires at its
// wall-clock time, evenly spread across Duration, so every cut happens
// however few ticks the session has. The loop ends at Duration.
func (s *session) schedule(start time.Time) error {
	end := start.Add(s.o.Duration)
	next := start.Add(s.o.AuditEvery)
	for cut, tick := 1, 1; ; {
		at, isCut := next, false
		if cut <= s.o.PowerCuts {
			if c := start.Add(s.o.Duration * time.Duration(cut) / time.Duration(s.o.PowerCuts+1)); !c.After(at) {
				at, isCut = c, true
			}
		}
		if !at.Before(end) {
			time.Sleep(time.Until(end))
			return nil
		}
		time.Sleep(time.Until(at))
		if isCut {
			if err := s.powerCut(cut); err != nil {
				return err
			}
			cut++
			continue
		}
		now := time.Now()
		if tick%spikeTicks == 0 {
			s.spikeUntil.Store(now.Add(spikeLen).UnixNano())
		}
		if tick%stallTicks == 0 {
			s.stallChip.Store(int64(tick / stallTicks % s.db.Config().Chips))
			s.stallUntil.Store(now.Add(stallLen).UnixNano())
		}
		s.audit(fmt.Sprintf("tick %d", tick), tick%verifyTicks == 0)
		tick++
		next = time.Now().Add(s.o.AuditEvery)
	}
}

// audit checks every invariant on the current engine: when verify is set,
// VerifyIntegrity at a quiesce point (the gate held exclusively, so no
// wire worker is mid-transaction); the snapshot ledger sum; and the
// commit watermark, which must not move backwards since the last audit of
// this epoch and must be at least the durable floor. It then raises the
// floor from the engine's checkpoint state. An audit never races a power
// cut, so any error it sees is a violation.
func (s *session) audit(when string, verify bool) {
	if verify {
		s.gate.Lock()
		err := s.db.VerifyIntegrity()
		s.gate.Unlock()
		if err != nil {
			s.violate("%s: VerifyIntegrity: %v", when, err)
		} else {
			s.rep.VerifyPasses++
		}
	}
	want := int64(s.o.Accounts) * initialBalance
	switch sum, n, err := ledgerSum(s.db); {
	case err != nil:
		s.violate("%s: ledger scan: %v", when, err)
	case n != s.o.Accounts:
		s.violate("%s: ledger scan saw %d accounts, want %d", when, n, s.o.Accounts)
	case sum != want:
		s.violate("%s: ledger sum %d, want %d (money %+d)", when, sum, want, sum-want)
	}
	w := s.db.CommitWatermark()
	if w < s.lastW {
		s.violate("%s: watermark moved backwards %d → %d", when, s.lastW, w)
	}
	if w < s.floor {
		s.violate("%s: watermark %d below durable floor %d", when, w, s.floor)
	}
	s.lastW = w
	s.raiseFloor(s.db)
	s.rep.Audits++
}

// raiseFloor raises the durable watermark floor from db's checkpoint
// state.
func (s *session) raiseFloor(db *ipa.DB) {
	if cs, ok, err := db.CheckpointState(); err == nil && ok && cs.MaxCommitTS > s.floor {
		s.floor = cs.MaxCommitTS
	}
}

// ledgerSum reads every account balance in one MVCC snapshot and returns
// the total and the row count. Scan's single statement snapshot is what
// makes the conservation check sound: a concurrent transfer is either
// entirely visible (both legs) or entirely invisible.
func ledgerSum(db *ipa.DB) (int64, int, error) {
	t, ok := db.Table("accounts")
	if !ok {
		return 0, 0, errors.New("accounts table missing")
	}
	var sum int64
	var n int
	err := t.Scan(func(key int64, tuple []byte) bool {
		sum += getInt64(tuple, balanceOffset)
		n++
		return true
	})
	return sum, n, err
}

// boot opens the engine, preloads the ledger durably, and starts the
// server front end.
func (s *session) boot() error {
	s.plan = ipa.NewFaultPlan(0, ipa.CrashBefore) // passive: KillPower only
	cfg := s.o.Engine
	cfg.Faults = s.plan
	db, err := ipa.Open(cfg)
	if err != nil {
		return fmt.Errorf("chaos: open: %w", err)
	}
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
	s.raiseFloor(db)
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

// powerCut kills the device mid-traffic, crashes the engine, recovers
// from the surviving image, audits the recovered engine and restarts the
// server on the same address.
func (s *session) powerCut(i int) error {
	s.logf("chaos: power cut %d (durable watermark floor %d)", i, s.floor)
	s.plan.KillPower()
	img := s.db.Crash()
	s.srv.Close() // hard close; the engine is already crashed

	db, err := ipa.Reopen(img)
	if err != nil {
		return fmt.Errorf("chaos: reopen after cut %d: %w", i, err)
	}
	redo := db.RecoveryStats().RecordsRedone
	s.rep.PowerCuts++
	s.rep.RecoveryRedos += redo
	s.db, s.lastW = db, 0
	s.audit(fmt.Sprintf("cut %d: recovered", i), true)
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
			return fmt.Errorf("chaos: restart server after cut %d: %w", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.srv = srv
	s.logf("chaos: cut %d recovered (%d records redone), serving again", i, redo)
	return nil
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
func (s *session) worker(seed int64) {
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
