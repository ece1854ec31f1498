package nand

import (
	"errors"
	"fmt"
	"sync"
)

// ErrPowerLost is returned by every chip operation once an injected power
// cut has fired (and, for the tripping operation itself, by that operation).
// Layers above must treat it as a crash: the in-memory state is gone, only
// the Flash image and the durable log survive.
var ErrPowerLost = errors.New("nand: power lost (injected fault)")

// FaultOp classifies the device operations that can host a fault point.
// Every program and erase a chip admits, and every log-device flush,
// executed while a FaultPlan is attached is one fault point, numbered in
// execution order, so a sweep can crash the system at each of them exactly
// once. A command the chip refuses changes nothing and is not counted.
type FaultOp int

const (
	// OpProgram is a full-page program.
	OpProgram FaultOp = 1 << iota
	// OpDeltaProgram is a partial-page program (an in-place append).
	OpDeltaProgram
	// OpErase is a block erase.
	OpErase
	// OpLogFlush is a write to the separate log device (counted via
	// FaultPlan.LogFlushPoint by the WAL flush hook, not by the chips).
	OpLogFlush

	// OpAll selects every operation kind.
	OpAll = OpProgram | OpDeltaProgram | OpErase | OpLogFlush
)

// OpRead classifies page reads for device operation hooks (latency
// injection, chaos observation). Reads are never fault points — a power
// cut during a read loses nothing durable — so OpRead is deliberately not
// part of OpAll and never counts toward a FaultPlan's crash schedule.
const OpRead FaultOp = 1 << 4

// String names the operation kind (single kinds only).
func (o FaultOp) String() string {
	switch o {
	case OpProgram:
		return "program"
	case OpDeltaProgram:
		return "delta-program"
	case OpErase:
		return "erase"
	case OpLogFlush:
		return "log-flush"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("FaultOp(%d)", int(o))
	}
}

// FaultMode selects what happens at the chosen fault point.
type FaultMode int

const (
	// CrashBefore loses power before the operation touches any cell: the
	// operation has no effect.
	CrashBefore FaultMode = iota
	// CrashTorn loses power mid-operation: a program persists only a
	// prefix of the data and OOB bytes, an erase resets only a prefix of
	// the block's pages. This is the torn-write case the paper's
	// delta-append durability argument must survive.
	CrashTorn
	// CrashAfter completes the operation and loses power immediately
	// afterwards.
	CrashAfter
)

// String names the fault mode.
func (m FaultMode) String() string {
	switch m {
	case CrashBefore:
		return "crash-before"
	case CrashTorn:
		return "torn"
	case CrashAfter:
		return "crash-after"
	default:
		return fmt.Sprintf("FaultMode(%d)", int(m))
	}
}

// FaultPlan is a deterministic power-cut schedule shared by all chips of a
// device (and by the WAL flush hook). It counts matching operations; when
// the K-th one arrives it injects the configured fault and from then on
// every operation fails with ErrPowerLost until PowerCycle is called.
//
// A plan with CrashAt == 0 never fires and merely counts: running a
// workload once against such a plan enumerates its fault points, so a sweep
// can then re-run the workload once per point.
type FaultPlan struct {
	mu      sync.Mutex
	kinds   FaultOp
	crashAt uint64 // 1-based index of the op to fault; 0 = count only
	mode    FaultMode
	ops     uint64 // matching operations seen since the last Arm
	dead    bool
	tripped bool
	rng     prng
}

// NewFaultPlan creates a plan that faults the crashAt-th operation (1-based)
// with the given mode, counting every operation kind. crashAt == 0 creates a
// passive, counting-only plan.
func NewFaultPlan(crashAt uint64, mode FaultMode) *FaultPlan {
	return &FaultPlan{kinds: OpAll, crashAt: crashAt, mode: mode, rng: prng{state: crashAt*0x9E3779B97F4A7C15 + 0x1234567}}
}

// SetKinds restricts which operation kinds count as fault points (and can
// trip the fault). Non-matching operations pass through uncounted — but
// still fail once the plan is dead.
func (p *FaultPlan) SetKinds(kinds FaultOp) {
	p.mu.Lock()
	p.kinds = kinds
	p.mu.Unlock()
}

// Arm re-targets the plan: the op counter restarts at zero, the plan is
// alive again and the crashAt-th matching operation from now on faults.
func (p *FaultPlan) Arm(crashAt uint64, mode FaultMode) {
	p.mu.Lock()
	p.crashAt = crashAt
	p.mode = mode
	p.ops = 0
	p.dead = false
	p.tripped = false
	p.rng = prng{state: crashAt*0x9E3779B97F4A7C15 + 0x1234567}
	p.mu.Unlock()
}

// Disarm turns the plan into a passive counter (no further faults fire).
// The dead flag is not touched; use PowerCycle to revive a dead device.
func (p *FaultPlan) Disarm() {
	p.mu.Lock()
	p.crashAt = 0
	p.mu.Unlock()
}

// PowerCycle clears the power-lost state so a reopened database can use the
// surviving Flash image. The plan stays disabled for the ops already
// counted (a tripped plan does not fire twice); Arm re-enables it.
func (p *FaultPlan) PowerCycle() {
	p.mu.Lock()
	p.dead = false
	p.mu.Unlock()
}

// KillPower cuts power NOW, independently of the operation counter: the
// plan trips immediately and every subsequent operation fails with
// ErrPowerLost until PowerCycle. It is the wall-clock-scheduled power cut
// of the chaos harness — unlike Arm, which schedules a cut at the K-th
// future operation, KillPower needs no cooperating operation stream, so it
// can fire from a timer goroutine while the engine is mid-transaction.
func (p *FaultPlan) KillPower() {
	p.mu.Lock()
	p.dead = true
	p.tripped = true
	p.mu.Unlock()
}

// Ops returns the number of matching operations counted since the last Arm.
func (p *FaultPlan) Ops() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ops
}

// Tripped reports whether the fault has fired since the last Arm.
func (p *FaultPlan) Tripped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tripped
}

// Dead reports whether the simulated device is currently without power.
func (p *FaultPlan) Dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// faultAction tells the chip how to execute (or not execute) an operation.
type faultAction int

const (
	actProceed faultAction = iota
	actTorn                // apply a prefix, then report power loss
	actAfter               // apply fully, then report power loss
)

// alive returns ErrPowerLost once the plan is dead; a chip without a plan
// (nil) always has power. It gates reads, which are never fault points
// themselves, and is the first check of every program and erase.
func (p *FaultPlan) alive() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return ErrPowerLost
	}
	return nil
}

// step records one matching operation and decides its fate. The second
// return value is non-nil when the operation must fail immediately
// (dead device, or crash-before at the fault point).
func (p *FaultPlan) step(op FaultOp) (faultAction, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return actProceed, ErrPowerLost
	}
	if p.kinds&op == 0 {
		return actProceed, nil
	}
	p.ops++
	if p.crashAt == 0 || p.tripped || p.ops != p.crashAt {
		return actProceed, nil
	}
	p.tripped = true
	p.dead = true
	switch p.mode {
	case CrashTorn:
		return actTorn, nil
	case CrashAfter:
		return actAfter, nil
	default:
		return actProceed, ErrPowerLost
	}
}

// tornLen picks how many of n bytes (or pages) a torn operation persists.
// It is deterministic for a given (crashAt, call sequence).
func (p *FaultPlan) tornLen(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n <= 0 {
		return 0
	}
	return int(p.rng.next() % uint64(n+1))
}

// LogFlushPoint is called by the WAL flush hook once per physical flush to
// the (otherwise unmodelled) log device. A crash at this point loses the
// whole flush batch: the commit records were never made durable, so every
// transaction in the batch must be rolled back by recovery.
func (p *FaultPlan) LogFlushPoint() error {
	act, err := p.step(OpLogFlush)
	if err != nil {
		return err
	}
	if act != actProceed {
		// A torn or crash-after log write still fails the flush: the log
		// device's own atomicity (sector checksum) discards the batch.
		return ErrPowerLost
	}
	return nil
}
