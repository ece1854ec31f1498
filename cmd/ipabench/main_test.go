package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"ipa/internal/bench"
)

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
