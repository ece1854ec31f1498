package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ipa/internal/bench"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden")

// quickGolden lists the experiments whose -quick output runs on the virtual
// device clock alone and so repeats byte for byte; concurrent and crash
// print wall-clock columns.
var quickGolden = []string{"table1", "fig1", "oltp", "ipl", "scenarios",
	"interference", "sweep", "readmix", "chips", "index", "secondary", "ycsb"}

var wallClockLine = regexp.MustCompile(`(?m)^\(completed in .* wall-clock\)\n`)

// TestQuickExperimentsMatchGolden is the refactor oracle: a change that
// means to leave the engine's behaviour alone leaves these experiments'
// output unchanged. A change that moves them on purpose reruns the test
// with -update and shows the diff of testdata/quick.golden.
func TestQuickExperimentsMatchGolden(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("runs the twelve deterministic experiments (≈11 s; far longer under -race)")
	}
	var out bytes.Buffer
	for _, name := range quickGolden {
		var stderr bytes.Buffer
		if code := run([]string{"-exp", name, "-quick"}, &out, &stderr); code != 0 {
			t.Fatalf("-exp %s -quick exited %d: %s", name, code, stderr.String())
		}
	}
	got := wallClockLine.ReplaceAllString(out.String(), "")
	const path = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gotLines), path, len(wantLines))
}

// TestUnknownExperimentExitsNonZero pins the fix for `-exp tabel1`, which
// used to print nothing and exit 0: an unknown name fails and lists the
// registered ones, before anything runs.
func TestUnknownExperimentExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "tabel1", "-quick"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown experiment wrote to stdout: %q", stdout.String())
	}
	for _, name := range bench.Names() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("error does not list %q: %s", name, stderr.String())
		}
	}
}

// TestEveryExperimentDocumented fails when a registered experiment is
// missing from this command's usage comment, from the -exp flag help, or
// has no `-exp <name>` heading in EXPERIMENTS.md.
func TestEveryExperimentDocumented(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	usage, _, _ := strings.Cut(string(src), "\npackage main")
	catalogue, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var help bytes.Buffer
	if code := run([]string{"-h"}, &bytes.Buffer{}, &help); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	expHelp := regexp.MustCompile(`(?s)-exp string\n(.*?)\n  -`).FindStringSubmatch(help.String())
	if expHelp == nil {
		t.Fatalf("no -exp entry in the flag help:\n%s", help.String())
	}
	for _, name := range bench.Names() {
		if !regexp.MustCompile(`//\tipabench -exp ` + name + `\b`).MatchString(usage) {
			t.Errorf("usage comment of cmd/ipabench/main.go has no `ipabench -exp %s` line", name)
		}
		if !regexp.MustCompile(`\b` + name + `\b`).MatchString(expHelp[1]) {
			t.Errorf("-exp flag help does not list %s: %s", name, expHelp[1])
		}
		if !regexp.MustCompile("(?m)^#+ .*`-exp " + name + "`").Match(catalogue) {
			t.Errorf("EXPERIMENTS.md has no heading for `-exp %s`", name)
		}
	}
}

// TestRejectsBadSettings: a flag value the experiment defaults would
// silently replace (a negative bound or count, seed 0, an N or M below 1)
// or the engine would refuse mid-run, and the retired -duration flag, are
// usage errors, before anything runs.
func TestRejectsBadSettings(t *testing.T) {
	for _, args := range [][]string{
		{"-ops", "-5"}, {"-scale", "-3"}, {"-threads", "-2"}, {"-chips", "-1"},
		{"-seed", "0"}, {"-duration", "1s"}, {"-n", "0", "-m", "0"}, {"-n", "0", "-m", "4"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-exp", "fig1", "-quick"), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), args[0]) {
			t.Errorf("%v: stderr does not name %s: %q", args, args[0], stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway: %q", args, stdout.String())
		}
	}
}

// TestJSONCarriesEveryArm: -json writes each arm of Table 1 as its label
// beside the full ipa.Stats of its run, and those are the counts the
// printed table shows. A MarshalJSON promoted from an embedded type would
// drop the label or the counters.
func TestJSONCarriesEveryArm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table1", "-quick", "-json", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Experiment string
		Result     map[string]map[string]json.RawMessage
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Experiment != "table1" {
		t.Fatalf("want one table1 entry, got %s", data)
	}
	arms := entries[0].Result
	for _, name := range []string{"Baseline", "PSLC", "OddMLC"} {
		for _, key := range []string{"Label", "Scheme", "HostWrites", "GCErases", "InPlaceAppends", "CommittedTxns", "Elapsed", "Run"} {
			if _, ok := arms[name][key]; !ok {
				t.Errorf("arm %s has no %q key", name, key)
			}
		}
	}
	count := func(key string) (n uint64) {
		if err := json.Unmarshal(arms["PSLC"][key], &n); err != nil {
			t.Fatalf("pSLC %s: %v", key, err)
		}
		return n
	}
	// pSLC is the second figure of a row, after the baseline's.
	column := func(row string) string {
		for _, line := range strings.Split(stdout.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, row+" "); ok {
				return strings.Fields(rest)[1]
			}
		}
		t.Fatalf("no %q row in:\n%s", row, stdout.String())
		return ""
	}
	if got, want := column("GC Erases"), fmt.Sprint(count("GCErases")); got != want {
		t.Errorf("printed pSLC GC erases %s, JSON %s", got, want)
	}
	appends, oop := float64(count("InPlaceAppends")), float64(count("OutOfPlaceWrites"))
	want := fmt.Sprintf("%.0f/%.0f", 100*oop/(appends+oop), 100*appends/(appends+oop))
	if got := column("Out-of-Place vs In-Place [%]"); got != want {
		t.Errorf("printed pSLC split %s, JSON's appends make it %s", got, want)
	}
}
