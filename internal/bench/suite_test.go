package bench

import (
	"strings"
	"testing"
	"time"

	"ipa"
)

// arm is a run that wrote writes pages and migrated and erased that often.
func arm(writes, migrations, erases uint64) Result {
	s := ipa.Stats{Elapsed: time.Second}
	s.HostReads, s.HostWrites, s.Invalidations = 500, writes, writes/2
	s.GCMigrations, s.GCErases, s.CommittedTxns = migrations, erases, 100
	return Result{Stats: s}
}

// TestDropsAndLifetimesWithoutGC: a drop or a lifetime is a quotient, and
// when the arm it divides by never collected garbage there is no quotient to
// print — "n/a (no GC)", never "+0.0%" or "0.00x", which read as "IPA
// changed nothing" and "the device dies at once".
func TestDropsAndLifetimesWithoutGC(t *testing.T) {
	for _, tc := range []struct {
		name            string
		base, ipa       Result
		migr, erase     string // the suite's drop columns
		life            string // the suite's lifetime, and the IPA longevity row's
		baseLife        string // the baseline longevity row's
		migrPct, lifeIs float64
	}{
		{"both arms collect", arm(1000, 400, 20), arm(2000, 200, 10), "+75.0%", "+75.0%", "4.00x", "1.00x", 75, 4},
		{"IPA collects more", arm(1000, 100, 10), arm(1000, 200, 20), "-100.0%", "-100.0%", "0.50x", "1.00x", -100, 0.5},
		{"IPA never collects", arm(1000, 400, 20), arm(1000, 0, 0), "+100.0%", "+100.0%", noGC, "1.00x", 100, 0},
		{"baseline never collects", arm(1000, 0, 0), arm(1000, 30, 2), noGC, noGC, noGC, noGC, 0, 0},
		{"nobody collects", arm(1000, 0, 0), arm(1000, 0, 0), noGC, noGC, noGC, noGC, 0, 0},
		{"migrations but no erase yet", arm(1000, 50, 0), arm(1000, 10, 0), "+80.0%", noGC, noGC, noGC, 80, 0},
		{"an arm that wrote nothing", arm(1000, 400, 20), arm(0, 0, 0), "+0.0%", "+0.0%", noGC, "1.00x", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, is := tc.base.Stats, tc.ipa.Stats
			if got := dropPctPerWrite(bs.GCMigrations, bs.TotalHostWrites(), is.GCMigrations, is.TotalHostWrites()); got != tc.migrPct {
				t.Errorf("dropPctPerWrite of migrations = %v, want %v", got, tc.migrPct)
			}
			row := SuiteRow{"w", tc.base, tc.ipa}
			if row.Lifetime() != tc.lifeIs {
				t.Errorf("Lifetime = %v, want %v", row.Lifetime(), tc.lifeIs)
			}
			var sb strings.Builder
			SuiteResult{Rows: []SuiteRow{row}}.Write(&sb)
			cols := strings.Fields(strings.ReplaceAll(strings.Split(sb.String(), "\n")[2], noGC, "n/a"))
			want := []string{tc.migr, tc.erase, tc.life}
			for i, w := range want {
				if got := cols[len(cols)-len(want)+i]; got != strings.ReplaceAll(w, noGC, "n/a") {
					t.Errorf("suite column %d of %q prints %q, want %q", i, sb.String(), got, w)
				}
			}
			long := Longevity(SuiteResult{Rows: []SuiteRow{row}})
			if long[1].RelativeLifetime != tc.lifeIs {
				t.Errorf("IPA RelativeLifetime = %v, want %v", long[1].RelativeLifetime, tc.lifeIs)
			}
			sb.Reset()
			long.Write(&sb)
			lines := strings.Split(sb.String(), "\n")
			for i, w := range []string{tc.baseLife, tc.life} {
				if !strings.HasSuffix(lines[2+i], " "+w) {
					t.Errorf("longevity row %q, want a lifetime of %q", lines[2+i], w)
				}
			}
		})
	}
}

// TestTable1WithoutGC: the same for Table 1's relative columns.
func TestTable1WithoutGC(t *testing.T) {
	var sb strings.Builder
	Table1Result{
		Baseline: Arm{"0x0", arm(1000, 0, 0)},
		PSLC:     Arm{"pSLC", arm(1000, 12, 1)},
		OddMLC:   Arm{"odd-MLC", arm(1000, 0, 0)},
	}.Write(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if gc := strings.HasPrefix(line, "GC ") || strings.HasPrefix(line, "Page Migrations"); gc != (strings.Count(line, noGC) == 2) {
			t.Errorf("%q: want %q in both relative columns of the GC rows and nowhere else", line, noGC)
		}
	}
}
