package ipa_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The tests in this file keep the prose in step with the tree: links
// resolve, design docs are cross-linked and still mention the identifiers
// they document, every package carries a godoc comment — and the tree
// stays within its line budget.

func readDoc(t *testing.T, path string) string {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("doc missing: %v", err)
	}
	return string(doc)
}

func internalPackages(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatalf("listing internal/: %v", err)
	}
	var pkgs []string
	for _, e := range entries {
		if e.IsDir() {
			pkgs = append(pkgs, e.Name())
		}
	}
	return pkgs
}

var markdownLink = regexp.MustCompile(`\]\(([^)]+)\)`)

// TestRelativeLinksResolve fails on a Markdown link whose relative target
// does not exist.
func TestRelativeLinksResolve(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append([]string{"README.md", "ROADMAP.md", "EXPERIMENTS.md"}, docs...) {
		for _, m := range markdownLink.FindAllStringSubmatch(readDoc(t, f), -1) {
			target, _, _ := strings.Cut(strings.Fields(m[1])[0], "#")
			if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(f), target)); err != nil {
				t.Errorf("broken link in %s: %s", f, target)
			}
		}
	}
}

// TestDesignDocsAreCrossLinked fails when a docs/DESIGN_*.md is not linked
// from docs/ARCHITECTURE.md, or the wire-protocol spec is not linked from
// the two entry documents.
func TestDesignDocsAreCrossLinked(t *testing.T) {
	arch := readDoc(t, "docs/ARCHITECTURE.md")
	designs, err := filepath.Glob("docs/DESIGN_*.md")
	if err != nil || len(designs) == 0 {
		t.Fatalf("no design docs found: %v", err)
	}
	for _, f := range designs {
		if name := filepath.Base(f); !strings.Contains(arch, "("+name+")") {
			t.Errorf("docs/ARCHITECTURE.md does not link %s", name)
		}
	}
	for _, f := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		if !strings.Contains(readDoc(t, f), "DESIGN_SERVER.md") {
			t.Errorf("%s does not link docs/DESIGN_SERVER.md", f)
		}
	}
}

// TestDesignDocsHaveNotDrifted fails when a design doc stops mentioning an
// identifier it documents or loses one of its sections. (That every server
// command and error code is specified is internal/server/spec_test.go's
// job.)
func TestDesignDocsHaveNotDrifted(t *testing.T) {
	for doc, want := range map[string]struct{ symbols, sections []string }{
		"docs/DESIGN_CHECKPOINT.md": {
			symbols: []string{"Checkpoint", "RecordsRedone", "SetSegmentBytes"},
		},
		"docs/DESIGN_SERVER.md": {
			symbols: []string{"ipaserver", "ipaload", "ipaclient", "FuzzProtoDecode", "MaxBulk", "healthz", "metrics", "PROTO", "CLOSED", "CONFLICT"},
			sections: []string{"## Frame layout", "## Commands", "## Error codes", "## Pipelining",
				"## Transaction sessions", "## Graceful shutdown"},
		},
		"docs/DESIGN_OPS.md": {
			symbols: []string{"SampleOps", "ipa_device_erase_budget", "ipa_device_life_burned_ratio",
				"ipa_device_time_to_death_seconds", "ipa_device_erases_avoided_total", "ipa_window_tps",
				"ipa_server_command_seconds", "ipa_chip_erases_total", "stats.json", "dashboard",
				"elapsed_ms", "StatsDoc", "-CODE msg"},
			sections: []string{"## The burn model", "## /metrics", "## /stats.json", "## /dashboard", "## The ipadb envelope"},
		},
	} {
		text := readDoc(t, doc)
		for _, sym := range want.symbols {
			if !strings.Contains(text, sym) {
				t.Errorf("%s drifted: no mention of %s", doc, sym)
			}
		}
		for _, section := range want.sections {
			if !strings.HasPrefix(text, section) && !strings.Contains(text, "\n"+section) {
				t.Errorf("%s missing section: %s", doc, section)
			}
		}
	}
}

// TestArchitectureDocumentsEveryInternalPackage fails when a package under
// internal/ is not mentioned in docs/ARCHITECTURE.md — the architecture
// overview cannot silently fall behind the tree.
func TestArchitectureDocumentsEveryInternalPackage(t *testing.T) {
	arch := readDoc(t, "docs/ARCHITECTURE.md")
	for _, pkg := range internalPackages(t) {
		if !strings.Contains(arch, pkg) {
			t.Errorf("docs/ARCHITECTURE.md does not mention internal/%s", pkg)
		}
	}
}

// TestEveryInternalPackageHasAGodocComment fails when no non-test file of
// a package under internal/ starts its doc comment "// Package <name> ".
func TestEveryInternalPackageHasAGodocComment(t *testing.T) {
	for _, pkg := range internalPackages(t) {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src := readDoc(t, f)
			if strings.HasPrefix(src, "// Package "+pkg+" ") || strings.Contains(src, "\n// Package "+pkg+" ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("internal/%s has no package comment (want '// Package %s ...' in a non-test file)", pkg, pkg)
		}
	}
}

// lineBudget is the number of lines of non-test Go the tree holds outside
// benchmark/ (ROADMAP item 6 wants 20,000 or below). It is a ratchet: a
// change that needs more lines raises it in its own diff, where a reviewer
// sees the growth, and a change that deletes lines lowers it to the new
// count, so the next change cannot spend them unseen.
const lineBudget = 20143

// TestTreeStaysWithinItsLineBudget counts the lines of every non-test .go
// file outside benchmark/ (and outside hidden directories, where build
// caches and throw-away probes live) and requires exactly lineBudget.
func TestTreeStaysWithinItsLineBudget(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			lines += strings.Count(readDoc(t, path), "\n")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case lines > lineBudget:
		t.Errorf("%d lines of non-test Go outside benchmark/, budget %d", lines, lineBudget)
	case lines < lineBudget:
		t.Errorf("%d lines of non-test Go outside benchmark/, under the budget of %d: set lineBudget to %d", lines, lineBudget, lines)
	}
	t.Logf("%d lines of non-test Go outside benchmark/ (budget %d)", lines, lineBudget)
}
