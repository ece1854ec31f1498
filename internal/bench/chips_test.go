package bench

import (
	"strings"
	"testing"
)

// chipTestOptions is a shrunken run that still forces Flash traffic: the
// -quick working set is several times the buffer pool.
func chipTestOptions(t testing.TB, chips int) Options {
	o := small(t, "chips", 1200)
	o.Threads, o.Chips = 4, chips
	return o
}

// TestChipsScenario checks the accounting of every row of the ladder.
func TestChipsScenario(t *testing.T) {
	res, err := Chips(chipTestOptions(t, 0))
	if err != nil {
		t.Fatalf("Chips: %v", err)
	}
	if len(res.Rows) != len(ladder(0)) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(ladder(0)))
	}
	for i, row := range res.Rows {
		if row.CommittedTxns != 1200 {
			t.Errorf("chips=%d committed %d, want 1200", row.Chips, row.CommittedTxns)
		}
		if row.Throughput() <= 0 {
			t.Errorf("chips=%d reported no throughput", row.Chips)
		}
		if want := ladder(0)[i]; row.Chips != want || len(row.ChipStats) != want {
			t.Errorf("row %d: stats report %d chips and %d chip stats, want %d", i, row.Chips, len(row.ChipStats), want)
		}
		if b := row.ChipBalance(); b <= 0 || b > 1 {
			t.Errorf("chips=%d implausible balance %f", row.Chips, b)
		}
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "chips") {
		t.Errorf("Write produced no table:\n%s", sb.String())
	}
	if first := strings.Split(sb.String(), "\n")[2]; !strings.HasSuffix(first, " 1.00x") {
		t.Errorf("baseline row %q: want a speedup of 1.00x", first)
	}

	// The acceptance check of the chip-parallel flash stack: the same work
	// finishes in less virtual device time on a 4-chip device than on a
	// single chip, because the device clock is the busiest chip's clock and
	// the load stripes across the partitions.
	one, four := res.Rows[0], res.Rows[2]
	if one.Chips != 1 || four.Chips != 4 {
		t.Fatalf("ladder changed: rows 0 and 2 have %d and %d chips", one.Chips, four.Chips)
	}
	if four.Elapsed >= one.Elapsed*7/10 {
		t.Fatalf("4 chips should cut virtual time well below 1 chip: 1-chip=%s 4-chip=%s",
			one.Elapsed, four.Elapsed)
	}
	if s := four.Throughput() / one.Throughput(); s < 1.5 {
		t.Fatalf("4-chip virtual throughput speedup %.2fx, want >= 1.5x", s)
	}
	// The stripe must actually use all chips.
	if four.ChipBalance() < 0.25 {
		t.Fatalf("chip load badly skewed: balance %.2f", four.ChipBalance())
	}
}

// BenchmarkChipScaling reports virtual throughput for a ladder of chip
// counts (run with -benchtime to extend the ladder's op count).
func BenchmarkChipScaling(b *testing.B) {
	for _, chips := range []int{1, 2, 4} {
		b.Run(benchName(chips), func(b *testing.B) {
			o := chipTestOptions(b, chips)
			o.Ops = 400 * b.N
			res, err := Chips(o)
			if err != nil {
				b.Fatalf("Chips: %v", err)
			}
			row := res.Rows[0]
			b.ReportMetric(row.Throughput(), "virtual-tps")
		})
	}
}

func benchName(chips int) string {
	return "chips-" + string(rune('0'+chips))
}
