package server

import (
	"os"
	"strings"
	"testing"
)

// readSpec loads docs/DESIGN_SERVER.md relative to this package.
func readSpec(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/DESIGN_SERVER.md")
	if err != nil {
		t.Fatalf("wire-protocol spec missing: %v", err)
	}
	return string(doc)
}

// TestSpecDocumentsEveryCommand fails when a command exists in the
// dispatch table without an entry in docs/DESIGN_SERVER.md — the spec and
// the server cannot drift apart.
func TestSpecDocumentsEveryCommand(t *testing.T) {
	doc := readSpec(t)
	for _, name := range commandNames {
		if !strings.Contains(doc, "`"+name) {
			t.Errorf("command %s is not documented in docs/DESIGN_SERVER.md", name)
		}
		usage := commands[name].usage
		if !strings.Contains(doc, usage) {
			t.Errorf("usage %q of %s is not documented in docs/DESIGN_SERVER.md", usage, name)
		}
	}
}

// TestSpecDocumentsEveryErrorCode fails when a wire error code exists
// without an entry in the spec's error-code table.
func TestSpecDocumentsEveryErrorCode(t *testing.T) {
	doc := readSpec(t)
	for _, code := range wireCodes {
		if !strings.Contains(doc, "`"+code+"`") {
			t.Errorf("wire code %s is not documented in docs/DESIGN_SERVER.md", code)
		}
	}
}

// TestErrorCodesAreUniqueTokens guards the invariant clients parse by:
// one upper-case token, no spaces, mutually distinct.
func TestErrorCodesAreUniqueTokens(t *testing.T) {
	seen := map[string]bool{}
	for _, code := range wireCodes {
		if code == "" || strings.ToUpper(code) != code || strings.ContainsAny(code, " \r\n") {
			t.Errorf("wire code %q is not a bare upper-case token", code)
		}
		if seen[code] {
			t.Errorf("wire code %q declared twice", code)
		}
		seen[code] = true
	}
}
