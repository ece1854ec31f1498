package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ipa/internal/chaos"
)

// TestShortSessionHoldsInvariants runs a half-second session with one
// power cut: it exits 0, reports the cut and no violations.
func TestShortSessionHoldsInvariants(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-duration", "500ms", "-cuts", "1", "-accounts", "64", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var rep chaos.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("report: %v\n%s", err, stdout.String())
	}
	if rep.PowerCuts != 1 || len(rep.Violations) != 0 {
		t.Fatalf("%d power cuts, violations %v; want 1 and none", rep.PowerCuts, rep.Violations)
	}
}

// TestRejectsBadSettings: a negative -cuts or a zero -duration is a usage
// error, never a session that silently cuts no power, and so is an explicit
// -duration or -cuts beside -quick, which would replace it.
func TestRejectsBadSettings(t *testing.T) {
	for _, args := range [][]string{{"-cuts", "-1"}, {"-duration", "0"},
		{"-duration", "1s", "-quick"}, {"-cuts", "0", "-quick"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), args[0]) {
			t.Errorf("%v: stderr does not name %s: %q", args, args[0], stderr.String())
		}
	}
}
