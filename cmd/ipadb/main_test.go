package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ipa"
	"ipa/internal/server"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestShell builds a -json shell over a small deterministic engine.
func newTestShell(t *testing.T) *shell {
	t.Helper()
	db, err := ipa.Open(ipa.Config{
		PageSize:        2048,
		Blocks:          32,
		PagesPerBlock:   16,
		BufferPoolPages: 32,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		WriteMode:       ipa.IPANativeFlash,
		FlashMode:       ipa.PSLC,
		Analytic:        true,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return &shell{db: db, jsonOut: true}
}

// elapsedRe masks the envelope latency — the only nondeterministic field.
var elapsedRe = regexp.MustCompile(`"elapsed_ms":[0-9.eE+-]+`)

func maskElapsed(s string) string {
	return elapsedRe.ReplaceAllString(s, `"elapsed_ms":"X"`)
}

// goldenScript is every shell command, success and failure paths, in one
// deterministic sequence. The map key names the golden file; each entry
// runs under its own sub-test.
var goldenScript = []struct {
	name  string
	lines []string
}{
	{"help", []string{"help"}},
	{"create", []string{
		"create users 64",
		"create users 64", // EXISTS
		"create",          // ARGS
	}},
	{"insert", []string{
		"insert users 1 alice",
		"insert users 2 bob",
		"insert users 1 alice", // DUPKEY
		"insert nosuch 1 x",    // NOTABLE
		"insert users",         // ARGS
	}},
	{"get", []string{
		"get users 1",
		"get users 99", // NOTFOUND
		"get users xx", // ARGS
	}},
	{"update", []string{
		"update users 1 0 ALICE",
		"update users 99 0 x", // NOTFOUND
	}},
	{"scan", []string{
		"scan users 0 10",
		"scan users 0", // ARGS
	}},
	{"index", []string{
		"index users byref 8",
		"index users bad 63", // ARGS: offset+8 > 64
	}},
	{"indexes", []string{
		"indexes users",
		"indexes nosuch", // NOTABLE
	}},
	{"get-by", []string{
		"get-by users byref 0",
		"get-by users nosuch 0", // NOINDEX
	}},
	{"delete", []string{
		"delete users 2",
		"delete users 2", // NOTFOUND
	}},
	{"tables", []string{
		"create accounts 32", // sorts before users: tables lists by name
		"tables",
	}},
	{"flush", []string{"flush"}},
	{"unknown", []string{"frobnicate the flash"}}, // UNKNOWN
	{"quit", []string{"quit"}},
}

// TestGoldenEnvelopes runs the full script through one shell and compares
// each command's envelopes (elapsed_ms masked) against its golden file.
func TestGoldenEnvelopes(t *testing.T) {
	sh := newTestShell(t)
	for _, step := range goldenScript {
		t.Run(step.name, func(t *testing.T) {
			var buf bytes.Buffer
			sh.out = &buf
			for _, line := range step.lines {
				sh.run(line)
			}
			got := maskElapsed(buf.String())
			golden := filepath.Join("testdata", step.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (rerun with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("envelope mismatch for %s:\n--- got ---\n%s--- want ---\n%s", step.name, got, want)
			}
		})
	}
}

// TestEnvelopeShape checks every reply line is a well-formed envelope:
// valid JSON, ok/cmd always present, data xor error, elapsed_ms >= 0.
func TestEnvelopeShape(t *testing.T) {
	sh := newTestShell(t)
	var buf bytes.Buffer
	sh.out = &buf
	for _, step := range goldenScript {
		for _, line := range step.lines {
			sh.run(line)
		}
	}
	// stats/ops/checkpoint carry engine-defined payloads; include them in
	// the shape check even though they are not golden-pinned.
	for _, line := range []string{"stats", "ops", "checkpoint"} {
		sh.run(line)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var env struct {
			OK        *bool           `json:"ok"`
			Cmd       string          `json:"cmd"`
			ElapsedMS *float64        `json:"elapsed_ms"`
			Data      json.RawMessage `json:"data"`
			Error     *envError       `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("not an envelope: %q: %v", line, err)
		}
		if env.OK == nil || env.Cmd == "" || env.ElapsedMS == nil {
			t.Fatalf("envelope missing required fields: %q", line)
		}
		if *env.ElapsedMS < 0 {
			t.Errorf("negative elapsed_ms: %q", line)
		}
		if *env.OK && env.Error != nil {
			t.Errorf("ok envelope with error: %q", line)
		}
		if !*env.OK {
			if env.Error == nil || env.Error.Code == "" || env.Error.Msg == "" {
				t.Errorf("error envelope without code/msg: %q", line)
			}
			if len(env.Data) != 0 {
				t.Errorf("error envelope with data: %q", line)
			}
		}
	}
}

// TestEnvelopeCodesMatchWire drives each failure path and checks the
// envelope carries exactly the wire code ipaserver would answer with, and
// that every code the shell can emit exists in the server's table.
func TestEnvelopeCodesMatchWire(t *testing.T) {
	sh := newTestShell(t)
	var buf bytes.Buffer
	sh.out = &buf
	wire := make(map[string]bool)
	for _, c := range server.WireCodes() {
		wire[c] = true
	}

	cases := []struct {
		line string
		want string
	}{
		{"frobnicate", server.CodeUnknown},
		{"create", server.CodeArgs},
		{"get nosuch 1", server.CodeNoTable},
		{"create t 64", ""}, // setup
		{"create t 64", server.CodeExists},
		{"insert t 1 x", ""}, // setup
		{"insert t 1 x", server.CodeDupKey},
		{"get t 99", server.CodeNotFound},
		{"get-by t nosuch 1", server.CodeNoIndex},
		{"update t 1 zz x", server.CodeArgs},
	}
	for _, c := range cases {
		buf.Reset()
		sh.run(c.line)
		var env envelope
		envLine := strings.TrimSpace(buf.String())
		if err := json.Unmarshal([]byte(envLine), &env); err != nil {
			t.Fatalf("%q: %v", envLine, err)
		}
		if c.want == "" {
			if !env.OK {
				t.Fatalf("%q: setup failed: %s", c.line, envLine)
			}
			continue
		}
		if env.OK {
			t.Errorf("%q: expected failure with %s, got ok", c.line, c.want)
			continue
		}
		if env.Error == nil {
			t.Errorf("%q: error envelope without error object", c.line)
			continue
		}
		if env.Error.Code != c.want {
			t.Errorf("%q: code %s, want %s", c.line, env.Error.Code, c.want)
		}
		if !wire[env.Error.Code] {
			t.Errorf("%q: code %s not in the server wire-code table", c.line, env.Error.Code)
		}
	}
}

// TestWatchRender feeds a fixed /stats.json document through the watch
// fetch+render path and checks the frame carries the headline gauges.
func TestWatchRender(t *testing.T) {
	doc := server.StatsDoc{
		UptimeSec: 12,
		VirtualMS: 3456,
		Mode:      "IPANativeFlash",
		Engine: ipa.Stats{
			Scheme: ipa.Scheme{N: 2, M: 4},
			ChipStats: []ipa.ChipStat{
				{Chip: 0, BlockErases: 10},
				{Chip: 1, BlockErases: 7},
			},
		},
		Ops: ipa.OpsStats{
			EraseBudget:    96000,
			ErasesConsumed: 17,
			LifeBurned:     17.0 / 96000,
			ErasesAvoided:  5,
			WindowTPS:      123.4,
			TimeToDeath:    90 * time.Minute,
		},
		Server: server.ServerCounters{ConnectionsCurrent: 2, CommandsTotal: 99},
		Latency: map[string]server.LatencySummary{
			"GET": {Count: 50, MeanUS: 12.5, P50US: 10, P95US: 30, P99US: 44},
		},
	}
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stats.json" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer ts.Close()

	got, err := fetchStats(ts.URL + "/stats.json")
	if err != nil {
		t.Fatalf("fetchStats: %v", err)
	}
	var frame bytes.Buffer
	renderWatch(&frame, got)
	out := frame.String()
	for _, want := range []string{
		"IPANativeFlash", "2x4", // header
		"17 of 96000",      // burn gauge
		"time to death",    // extrapolation line
		"chip 0", "chip 1", // wear bars
		"GET", "50", // latency table
		"123.4", // window tps
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watch frame missing %q:\n%s", want, out)
		}
	}
}

// TestWatchFetchError checks a non-200 answer surfaces as an error, not a
// broken frame.
func TestWatchFetchError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	if _, err := fetchStats(ts.URL + "/stats.json"); err == nil {
		t.Fatal("expected error on 500")
	} else if !strings.Contains(err.Error(), "status 500") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestPlainModeStillWorks smoke-tests the prose renderer so -json stays
// optional.
func TestPlainModeStillWorks(t *testing.T) {
	sh := newTestShell(t)
	sh.jsonOut = false
	var buf bytes.Buffer
	sh.out = &buf
	for _, line := range []string{"create t 64", "insert t 1 hello", "get t 1", "tables"} {
		sh.run(line)
	}
	out := buf.String()
	for _, want := range []string{"table t created", "ok", `"hello"`, "1 rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("plain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"ok":`) {
		t.Errorf("plain mode leaked JSON envelopes:\n%s", out)
	}
}

// TestInsertSurvivesCrash: the insert verb is a transaction like update and
// delete, so a row it reported "ok" for is still there after a power cut
// that saves nothing volatile.
func TestInsertSurvivesCrash(t *testing.T) {
	sh := newTestShell(t)
	sh.out = &bytes.Buffer{}
	for _, line := range []string{"create t 64", "insert t 7 hello"} {
		sh.run(line)
	}
	db, err := ipa.Reopen(sh.db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer db.Close()
	tbl, ok := db.Table("t")
	if !ok {
		t.Fatalf("table lost across the crash")
	}
	row, err := tbl.Get(7)
	if err != nil {
		t.Fatalf("inserted row lost across the crash: %v", err)
	}
	if got := strings.TrimRight(string(row), "\x00"); got != "hello" {
		t.Fatalf("row = %q, want %q", got, "hello")
	}
}

// TestWithModesRejectsUnknownNames: a typo in -mode or -flash is an error
// naming the accepted values, never a silent native pSLC run.
func TestWithModesRejectsUnknownNames(t *testing.T) {
	base := ipa.Config{Scheme: ipa.Scheme{N: 2, M: 4}}
	for _, tc := range []struct {
		mode, flash string
		want        ipa.Config // unused when an error is expected
		errWords    string
	}{
		{"native", "pslc", ipa.Config{Scheme: base.Scheme, WriteMode: ipa.IPANativeFlash, FlashMode: ipa.PSLC}, ""},
		{"ssd", "oddmlc", ipa.Config{Scheme: base.Scheme, WriteMode: ipa.IPAConventionalSSD, FlashMode: ipa.OddMLC}, ""},
		{"traditional", "mlc", ipa.Config{WriteMode: ipa.Traditional, FlashMode: ipa.MLCFull}, ""},
		{"tradtional", "pslc", ipa.Config{}, "traditional, ssd or native"},
		{"native", "slc", ipa.Config{}, "pslc, oddmlc or mlc"},
	} {
		got, err := withModes(base, tc.mode, tc.flash)
		if tc.errWords != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errWords) {
				t.Errorf("-mode %s -flash %s: err %v, want one listing %q", tc.mode, tc.flash, err, tc.errWords)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("-mode %s -flash %s: %+v, %v; want %+v", tc.mode, tc.flash, got, err, tc.want)
		}
	}
}
