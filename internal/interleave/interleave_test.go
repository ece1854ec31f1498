package interleave

import (
	"errors"
	"fmt"
	"testing"

	"ipa"
)

// counters returns k programs that each commit n transactions of two
// statements on one shared row — lock it, then write it and commit — and
// append "client:txn" to log as they commit.
func counters(tbl *ipa.Table, k, n int, log *[]string) []Program {
	progs := make([]Program, k)
	for c := range progs {
		i := 0
		progs[c] = func() []Step {
			if i == n {
				return nil
			}
			i++
			return []Step{
				func(tx *ipa.Tx) error { _, err := tx.GetForUpdate(tbl, 0); return err },
				func(tx *ipa.Tx) error {
					if err := tx.UpdateAt(tbl, 0, 0, []byte{byte(c), byte(i)}); err != nil {
						return err
					}
					if err := tx.Commit(); err != nil {
						return err
					}
					*log = append(*log, fmt.Sprintf("%d:%d", c, i))
					return nil
				},
			}
		}
	}
	return progs
}

func openOne(t *testing.T) (*ipa.DB, *ipa.Table) {
	t.Helper()
	db, err := ipa.Open(ipa.Config{PageSize: 2048, Blocks: 16, PagesPerBlock: 16, BufferPoolPages: 8,
		WriteMode: ipa.IPANativeFlash, Scheme: ipa.Scheme{N: 2, M: 4}, FlashMode: ipa.PSLC})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", 16)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert(tbl, 0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// TestRunIsAFunctionOfTheSeed: programs that fight over one record lock
// all finish, the losers of each fight rerun, and one seed gives one
// commit order, one retry count and one device clock.
func TestRunIsAFunctionOfTheSeed(t *testing.T) {
	run := func(seed int64) (string, uint64) {
		db, tbl := openOne(t)
		defer db.Close()
		var log []string
		retries, err := Run(db, seed, counters(tbl, 4, 10, &log)...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(log) != 40 || db.Stats().CommittedTxns != 41 {
			t.Fatalf("seed %d: %d commits logged, %d committed", seed, len(log), db.Stats().CommittedTxns)
		}
		return fmt.Sprint(log, db.Now()), retries
	}
	first, retries := run(1)
	if retries == 0 {
		t.Fatalf("four programs on one lock never conflicted")
	}
	for i := 0; i < 3; i++ {
		if again, r := run(1); again != first || r != retries {
			t.Fatalf("seed 1 ran differently:\n%s (%d retries)\n%s (%d retries)", first, retries, again, r)
		}
	}
	if other, _ := run(2); other == first {
		t.Fatalf("seeds 1 and 2 gave one schedule")
	}
}

// TestRunStopsAtTheFirstError: an error other than a conflict ends the run
// at once, with no further statement of any program.
func TestRunStopsAtTheFirstError(t *testing.T) {
	db, _ := openOne(t)
	defer db.Close()
	boom := errors.New("boom")
	steps := 0
	prog := func() []Step {
		return []Step{func(*ipa.Tx) error { steps++; return boom }}
	}
	if _, err := Run(db, 1, prog, prog, prog); !errors.Is(err, boom) || steps != 1 {
		t.Fatalf("Run returned %v after %d statements, want boom after 1", err, steps)
	}
}
