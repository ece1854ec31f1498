// Package interleave runs several transaction programs against one
// database from the calling goroutine. A seeded scheduler picks which
// program advances by one statement next, so a run — its commit order, its
// lock conflicts, its device operations and its virtual clock — is a
// function of the seed: what real goroutines leave to the Go scheduler, the
// seed decides, in the manner of FoundationDB's deterministic simulation.
//
// No statement can block on another program: a record lock never waits (a
// conflict fails with ipa.ErrConflict at once), and a commit on one
// goroutine leads its own log flush and finds no earlier commit in flight.
// What needs real goroutines — group-commit batching, latch contention —
// is out of its reach.
package interleave

import (
	"errors"
	"math/rand"

	"ipa"
)

// A Step is one statement of a transaction.
type Step func(tx *ipa.Tx) error

// A Program is one client. It returns the statements of the client's next
// transaction, the last of which ends it (Commit or Abort), or nil when the
// client is done. A statement that fails with ipa.ErrConflict aborts the
// attempt, and the scheduler runs the same statements again from the first
// on a new transaction, so they must be safe to rerun.
type Program func() []Step

// client is a program's position: the transaction it is in and the next
// statement of it.
type client struct {
	next  Program
	steps []Step
	pos   int
	tx    *ipa.Tx
}

// Run advances progs, one statement per turn, until every one is done; a
// source seeded with seed picks the program of each turn. It returns the
// attempts a conflict aborted, or the first other error at once: the
// transactions open at that moment stay open, for the caller to crash or
// close the database under. Run keeps no state past its call, so
// goroutines may each run programs of their own against one database.
func Run(db *ipa.DB, seed int64, progs ...Program) (retries uint64, err error) {
	live := make([]*client, len(progs))
	for i, p := range progs {
		live[i] = &client{next: p}
	}
	rnd := rand.New(rand.NewSource(seed))
	for len(live) > 0 {
		i := rnd.Intn(len(live))
		c := live[i]
		if c.tx == nil {
			if len(c.steps) == 0 {
				c.steps = c.next()
			}
			if len(c.steps) == 0 {
				live = append(live[:i], live[i+1:]...)
				continue
			}
			c.tx, c.pos = db.Begin(), 0
		}
		switch err := c.steps[c.pos](c.tx); {
		case errors.Is(err, ipa.ErrConflict):
			_ = c.tx.Abort()
			c.tx = nil
			retries++
		case err != nil:
			return retries, err
		case c.pos+1 == len(c.steps):
			c.tx, c.steps = nil, nil
		default:
			c.pos++
		}
	}
	return retries, nil
}
