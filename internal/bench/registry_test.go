package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestSelect covers the -exp argument: one name runs that experiment alone,
// "all" runs every one, and an unknown name is an error listing them.
func TestSelect(t *testing.T) {
	names := func(specs []Spec) string {
		var out []string
		for _, s := range specs {
			out = append(out, s.Name)
		}
		return strings.Join(out, " ")
	}
	for exp, want := range map[string]string{
		"table1":     "table1",
		"oltp":       "oltp",
		"concurrent": "concurrent",
		"readmix":    "readmix",
		"all":        strings.Join(Names(), " "),
	} {
		sel, err := Select(exp)
		if err != nil {
			t.Errorf("Select(%q): %v", exp, err)
		}
		if got := names(sel); got != want {
			t.Errorf("Select(%q) = %q, want %q", exp, got, want)
		}
	}
	_, err := Select("tabel1")
	if err == nil {
		t.Fatal("Select accepted an unknown experiment")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error does not list %q: %v", name, err)
		}
	}
}

// TestResolve covers how flags overlay the defaults: every experiment's full
// and -quick defaults are bounded by a transaction count, -ops replaces it,
// -quick defaults yield to flags, and Validate refuses a run without ops.
func TestResolve(t *testing.T) {
	for _, s := range Specs() {
		for _, quick := range []bool{false, true} {
			if o := s.Resolve(quick, Options{}); o.Ops <= 0 {
				t.Errorf("%s (quick %v) defaults have no ops bound: %+v", s.Name, quick, o)
			}
			if o := s.Resolve(quick, Options{Ops: 50}); o.Ops != 50 {
				t.Errorf("%s (quick %v): -ops 50 resolved to %d", s.Name, quick, o.Ops)
			}
			o := s.Defaults(quick)
			for _, ops := range []int{0, -1} {
				o.Ops = ops
				if err := s.Validate(o); err == nil {
					t.Errorf("%s (quick %v) validated with Ops %d", s.Name, quick, ops)
				}
			}
		}
	}
	table1 := spec(t, "table1")
	if o := table1.Resolve(false, Options{}); o.Ops != 14831 || o.Scale != 4 || o.Profile != DefaultProfile || o.Quick {
		t.Errorf("table1 full defaults = %+v", o)
	}
	if o := table1.Resolve(true, Options{}); o.Scale != 1 || o.Profile != SmallProfile || !o.Quick {
		t.Errorf("table1 quick defaults = %+v", o)
	}
	if o := table1.Resolve(true, Options{Ops: 5, Scale: 3, N: 4, M: 8, Seed: 9}); o.Ops != 5 || o.Scale != 3 || o.N != 4 || o.M != 8 || o.Seed != 9 {
		t.Errorf("flags did not override the quick defaults: %+v", o)
	}
	if err := table1.Validate(Options{Ops: 5}); err == nil {
		t.Error("options without a device profile validated")
	}
}

// TestDefaultsAreRunnable checks every experiment's full and -quick
// defaults: they validate (a non-zero bound, a device), and — run for a
// handful of transactions — the data set they load fits the device, whose
// capacity the pSLC configurations halve.
func TestDefaultsAreRunnable(t *testing.T) {
	for _, s := range Specs() {
		for _, quick := range []bool{true, false} {
			s, o := s, s.Defaults(quick)
			name := s.Name + "/full"
			if quick {
				name = s.Name + "/quick"
			}
			t.Run(name, func(t *testing.T) {
				if err := s.Validate(o); err != nil {
					t.Fatal(err)
				}
				if s.Name == "crash" {
					return // its device and data set are internal/crash's, not Options'
				}
				if !quick && testing.Short() {
					t.Skip("full-size load")
				}
				t.Parallel()
				if _, err := s.Run(o.with(Options{Ops: 8})); err != nil {
					t.Fatalf("defaults %+v do not run: %v", o, err)
				}
			})
		}
	}
}

// TestQuickDefaultsAreDeterministic runs two virtual-clock experiments
// twice at their -quick defaults: the rendered tables must be identical.
func TestQuickDefaultsAreDeterministic(t *testing.T) {
	for _, name := range []string{"interference", "index"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			render := func() string {
				s := spec(t, name)
				res, err := s.Run(s.Defaults(true))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var buf bytes.Buffer
				res.Write(&buf)
				return buf.String()
			}
			if a, b := render(), render(); a != b {
				t.Errorf("%s is not deterministic:\n%s\nvs\n%s", name, a, b)
			}
		})
	}
}
