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
	for _, row := range res.Rows {
		if row.Committed != 1200 {
			t.Errorf("chips=%d committed %d, want 1200", row.Chips, row.Committed)
		}
		if row.VirtualTPS <= 0 {
			t.Errorf("chips=%d reported no throughput", row.Chips)
		}
		if row.Stats.Chips != row.Chips || len(row.Stats.ChipStats) != row.Chips {
			t.Errorf("chips=%d stats report %d chips", row.Chips, row.Stats.Chips)
		}
		if row.Balance <= 0 || row.Balance > 1 {
			t.Errorf("chips=%d implausible balance %f", row.Chips, row.Balance)
		}
	}
	if res.Rows[0].Speedup != 1 {
		t.Errorf("baseline speedup = %f, want 1", res.Rows[0].Speedup)
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "chips") {
		t.Errorf("Write produced no table:\n%s", sb.String())
	}

	// The acceptance check of the chip-parallel flash stack: the same work
	// finishes in less virtual device time on a 4-chip device than on a
	// single chip, because the device clock is the busiest chip's clock and
	// the load stripes across the partitions.
	one, four := res.Rows[0], res.Rows[2]
	if one.Chips != 1 || four.Chips != 4 {
		t.Fatalf("ladder changed: rows 0 and 2 have %d and %d chips", one.Chips, four.Chips)
	}
	if four.Virtual >= one.Virtual*7/10 {
		t.Fatalf("4 chips should cut virtual time well below 1 chip: 1-chip=%s 4-chip=%s",
			one.Virtual, four.Virtual)
	}
	if four.Speedup < 1.5 {
		t.Fatalf("4-chip virtual throughput speedup %.2fx, want >= 1.5x", four.Speedup)
	}
	// The stripe must actually use all chips.
	if four.Balance < 0.25 {
		t.Fatalf("chip load badly skewed: balance %.2f", four.Balance)
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
			b.ReportMetric(row.VirtualTPS, "virtual-tps")
		})
	}
}

func benchName(chips int) string {
	return "chips-" + string(rune('0'+chips))
}
