package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
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

// newTestServer starts a server over a small deterministic engine on a
// loopback port and returns its address.
func newTestServer(t *testing.T) string {
	t.Helper()
	addr, _ := newTestServerDB(t)
	return addr
}

// newTestServerDB is newTestServer that also returns the server's engine.
func newTestServerDB(t *testing.T) (string, *ipa.DB) {
	t.Helper()
	db, err := ipa.Open(ipa.Config{
		PageSize:        2048,
		Blocks:          32,
		PagesPerBlock:   16,
		BufferPoolPages: 32,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		WriteMode:       ipa.IPANativeFlash,
		FlashMode:       ipa.PSLC,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String(), db
}

// shell runs ipadb against addr with the lines on stdin and returns what
// it printed; it fails the test on a nonzero exit.
func shell(t *testing.T, addr string, jsonOut bool, lines ...string) string {
	t.Helper()
	args := []string{"-addr", addr}
	if jsonOut {
		args = append(args, "-json")
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, strings.NewReader(strings.Join(lines, "\n")+"\n"), &stdout, &stderr); code != 0 {
		t.Fatalf("ipadb %v: exit %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// elapsedRe and infoRe mask what varies from run to run: the envelope
// latency, and the INFO fields that carry the port, the clock, the CPU
// count and the server's running totals.
var (
	elapsedRe = regexp.MustCompile(`"elapsed_ms":[0-9.eE+-]+`)
	infoRe    = regexp.MustCompile(`(addr|uptime_seconds|workers|connections_current|connections_total|commands_total|error_replies_total):[^\\]*`)
)

func mask(s string) string {
	s = elapsedRe.ReplaceAllString(s, `"elapsed_ms":"X"`)
	return infoRe.ReplaceAllString(s, `$1:X`)
}

// goldenScript covers one success and one error of every verb the shell
// had before it spoke the server's command set; each step is named after
// that old verb and runs over its own connection to one server.
var goldenScript = []struct {
	name  string
	lines []string
}{
	{"help", []string{
		"info",
		"info all", // ARGS
	}},
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
		"cindex users byref 8",
		"cindex users bad 63", // ARGS: offset+8 > 64
	}},
	{"indexes", []string{
		"indexes users",
		"indexes nosuch", // NOTABLE
	}},
	{"get-by", []string{
		"getby users byref 0",
		"getby users nosuch 0", // NOINDEX
	}},
	{"delete", []string{
		"del users 2",
		"del users 2", // NOTFOUND
	}},
	{"tables", []string{
		"create accounts 32", // sorts before users: TABLES lists by name
		"tables",
		"count users",
	}},
	{"flush", []string{
		"checkpoint",
		"checkpoint now", // ARGS
	}},
	{"unknown", []string{"frobnicate the flash"}}, // UNKNOWN
	{"quit", []string{"quit", "ping"}},            // nothing runs after QUIT
}

// TestGoldenEnvelopes runs the script against one server and compares
// each step's envelopes (volatile fields masked) with its golden file.
func TestGoldenEnvelopes(t *testing.T) {
	addr := newTestServer(t)
	for _, step := range goldenScript {
		t.Run(step.name, func(t *testing.T) {
			got := mask(shell(t, addr, true, step.lines...))
			golden := filepath.Join("testdata", step.name+".golden")
			if *update {
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
	addr := newTestServer(t)
	var out strings.Builder
	for _, step := range goldenScript {
		out.WriteString(shell(t, addr, true, step.lines...))
	}
	// Replies the goldens do not pin: text, JSON in a bulk, a transaction.
	out.WriteString(shell(t, addr, true, "stats", "stats json", "ping",
		"begin", "getfu users 1", "commit", "commit"))
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
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
		if *env.OK && (env.Error != nil || len(env.Data) == 0) {
			t.Errorf("ok envelope without data or with an error: %q", line)
		}
		if !*env.OK && (env.Error == nil || env.Error.Code == "" || env.Error.Msg == "" || len(env.Data) != 0) {
			t.Errorf("error envelope without code/msg or with data: %q", line)
		}
	}
}

// TestNoServerIsAnError: with nothing listening on -addr the dial is
// refused, and the shell exits 1 with a message naming the address
// instead of waiting for input.
func TestNoServerIsAnError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", addr, "-json"}, strings.NewReader("ping\n"), &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), addr) {
		t.Errorf("stderr does not name %s: %q", addr, stderr.String())
	}
}

// TestInsertSurvivesCrash: an insert the shell printed OK for was
// committed by the server, so it survives a power cut that saves nothing
// volatile.
func TestInsertSurvivesCrash(t *testing.T) {
	addr, db := newTestServerDB(t)
	out := shell(t, addr, true, "create t 64", "insert t 7 hello")
	if strings.Contains(out, `"ok":false`) {
		t.Fatalf("shell reported an error:\n%s", out)
	}
	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer db2.Close()
	tbl, ok := db2.Table("t")
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
		Server: server.ServerCounters{ConnectionsCurrent: 2, Commands: 99},
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
	out := shell(t, newTestServer(t), false, "create t 64", "insert t 1 hello", "get t 1", "tables", "get t 2")
	for _, want := range []string{"connected to", "> OK\n", "> hello\n", "> t\n", "> error: NOTFOUND"} {
		if !strings.Contains(out, want) {
			t.Errorf("plain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"ok":`) {
		t.Errorf("plain mode leaked JSON envelopes:\n%s", out)
	}
}
