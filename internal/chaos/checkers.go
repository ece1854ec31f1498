package chaos

import (
	"errors"
	"time"

	"ipa"
)

// This file holds the continuous checkers — goroutines that audit the
// session's invariants while traffic and faults are live — and the
// transient-fault injector schedulers. Each checker loops until the
// session stops, taking the epoch lock shared so a power cut can never
// swap the engine out from under a read.

// ledgerSum reads every account balance in one MVCC snapshot and returns
// the total and the row count. Scan's single statement snapshot is what
// makes the conservation check sound: a concurrent transfer is either
// entirely visible (both legs) or entirely invisible.
func (s *session) ledgerSum(db *ipa.DB) (int64, int, error) {
	t, ok := db.Table("accounts")
	if !ok {
		return 0, 0, errNoTable
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

var errNoTable = errors.New("chaos: accounts table missing after recovery")

// ledgerChecker audits conservation every AuditEvery: the snapshot sum of
// all balances must equal Accounts × initialBalance at every instant, no
// matter how many transfers, evictions, GC passes or power cuts happened.
func (s *session) ledgerChecker() {
	want := int64(s.o.Accounts) * initialBalance
	for !s.stop.Load() {
		s.sleep(s.o.AuditEvery)
		if s.stop.Load() {
			return
		}
		s.mu.RLock()
		db := s.db
		sum, n, err := s.ledgerSum(db)
		s.mu.RUnlock()
		if err != nil {
			// ErrClosed/ErrPowerLost can surface if the scan raced the
			// first instants of a cut; anything else is a real failure.
			if isTransient(err) {
				continue
			}
			s.violate("ledger scan: %v", err)
			continue
		}
		if n != s.o.Accounts {
			s.violate("ledger scan saw %d accounts, want %d", n, s.o.Accounts)
			continue
		}
		if sum != want {
			s.violate("ledger sum %d, want %d (money %+d)", sum, want, sum-want)
			continue
		}
		s.audits.Add(1)
	}
}

// watermarkChecker audits commit-timestamp monotonicity every AuditEvery:
// within an epoch the watermark never decreases, and it never falls below
// the durable checkpoint floor (the recovered watermark after a cut is
// checked against the same floor by powerCut itself). It also advances
// the floor from the background checkpointer's progress.
func (s *session) watermarkChecker() {
	lastEpoch := int64(-1)
	var lastW uint64
	for !s.stop.Load() {
		s.sleep(s.o.AuditEvery)
		if s.stop.Load() {
			return
		}
		s.mu.RLock()
		epoch, db := s.epoch, s.db
		floor := s.durableFloor.Load() // read floor before the watermark
		w := db.CommitWatermark()
		s.noteDurableFloor(db)
		s.mu.RUnlock()
		if epoch == lastEpoch && w < lastW {
			s.violate("epoch %d: watermark moved backwards %d → %d", epoch, lastW, w)
		}
		if w < floor {
			s.violate("epoch %d: watermark %d below durable floor %d", epoch, w, floor)
		}
		lastEpoch, lastW = epoch, w
		s.tsChecks.Add(1)
	}
}

// integrityChecker runs VerifyIntegrity every VerifyEvery at a quiesce
// point: it takes the gate exclusively, so no wire worker is mid-
// transaction, then checks the pk ↔ heap ↔ secondary bijection of every
// table. Lock order is gate → mu; the power-cutter takes only mu, so the
// two can never deadlock.
func (s *session) integrityChecker() {
	for !s.stop.Load() {
		s.sleep(s.o.VerifyEvery)
		if s.stop.Load() {
			return
		}
		s.gate.Lock()
		s.mu.RLock()
		err := s.db.VerifyIntegrity()
		s.mu.RUnlock()
		s.gate.Unlock()
		if err != nil {
			if isTransient(err) {
				continue
			}
			s.violate("VerifyIntegrity: %v", err)
			continue
		}
		s.verifies.Add(1)
	}
}

// spiker schedules device-wide latency spikes: every SpikeEvery it opens
// a SpikeLen window during which the op hook charges spikeVirtual per
// chip operation.
func (s *session) spiker() {
	for !s.stop.Load() {
		s.sleep(s.o.SpikeEvery)
		if s.stop.Load() {
			return
		}
		s.spikeUntil.Store(time.Now().Add(s.o.SpikeLen).UnixNano())
	}
}

// staller freezes one chip at a time, round-robin, for StallLen per
// StallEvery period — the single-slow-chip scenario that exercises the
// multi-chip scheduler's tail behaviour.
func (s *session) staller() {
	chip := 0
	for !s.stop.Load() {
		s.sleep(s.o.StallEvery)
		if s.stop.Load() {
			return
		}
		s.stallChip.Store(int64(chip))
		s.stallUntil.Store(time.Now().Add(s.o.StallLen).UnixNano())
		chip = (chip + 1) % s.chips
	}
}

// sleep waits d, returning early (in ≤25ms) once the session stops.
func (s *session) sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	for !s.stop.Load() {
		left := time.Until(deadline)
		if left <= 0 {
			return
		}
		if left > 25*time.Millisecond {
			left = 25 * time.Millisecond
		}
		time.Sleep(left)
	}
}

// isTransient reports whether an engine error is an expected artefact of
// a concurrent power cut rather than an invariant violation.
func isTransient(err error) bool {
	return errors.Is(err, ipa.ErrClosed) || errors.Is(err, ipa.ErrPowerLost)
}
