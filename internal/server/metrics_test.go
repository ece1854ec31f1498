package server

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// The conformance suite: every scrape of /metrics must parse under the
// Prometheus text exposition format (version 0.0.4) and satisfy the
// semantic rules the format implies — HELP/TYPE before samples, no
// duplicate series, histogram buckets cumulative and capped by +Inf ==
// _count. The suite runs against a live server that has executed real
// commands, so every family ships populated.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// sampleRe splits one sample line into name, optional label block and
	// value. Label values in our exposition never contain escaped braces.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// expoSample is one parsed sample line.
type expoSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// expoFamily is one parsed metric family.
type expoFamily struct {
	name    string
	help    string
	typ     string
	samples []expoSample
}

// parseExposition parses a full scrape, failing the test on any grammar
// violation: samples before their family header, a HELP without a TYPE,
// unparsable values, bad names.
func parseExposition(t *testing.T, body string) map[string]*expoFamily {
	t.Helper()
	families := make(map[string]*expoFamily)
	var cur *expoFamily
	var pendingHelp string
	var pendingHelpName string

	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP line: %q", lineNo, line)
			}
			if pendingHelpName != "" {
				t.Fatalf("line %d: HELP %s follows HELP %s without a TYPE line between",
					lineNo, name, pendingHelpName)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: duplicate family %s", lineNo, name)
			}
			pendingHelp, pendingHelpName = help, name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE line: %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: invalid metric type %q", lineNo, typ)
			}
			if name != pendingHelpName {
				t.Fatalf("line %d: TYPE %s does not follow its HELP (pending %q)",
					lineNo, name, pendingHelpName)
			}
			cur = &expoFamily{name: name, help: pendingHelp, typ: typ}
			families[name] = cur
			pendingHelp, pendingHelpName = "", ""
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q (only HELP/TYPE allowed)", lineNo, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: unparsable sample line %q", lineNo, line)
			}
			name, labelBlock, valStr := m[1], m[2], m[3]
			var value float64
			switch valStr {
			case "+Inf":
				value = math.Inf(1)
			case "-Inf":
				value = math.Inf(-1)
			case "NaN":
				value = math.NaN()
			default:
				v, err := strconv.ParseFloat(valStr, 64)
				if err != nil {
					t.Fatalf("line %d: unparsable value %q: %v", lineNo, valStr, err)
				}
				value = v
			}
			labels := make(map[string]string)
			if labelBlock != "" {
				for _, lm := range labelRe.FindAllStringSubmatch(labelBlock[1:len(labelBlock)-1], -1) {
					if !labelNameRe.MatchString(lm[1]) {
						t.Fatalf("line %d: bad label name %q", lineNo, lm[1])
					}
					if _, dup := labels[lm[1]]; dup {
						t.Fatalf("line %d: duplicate label %q", lineNo, lm[1])
					}
					labels[lm[1]] = lm[2]
				}
			}
			// Samples must belong to the family most recently declared:
			// for histograms the sample names carry a suffix.
			if cur == nil {
				t.Fatalf("line %d: sample %s before any HELP/TYPE header", lineNo, name)
			}
			base := name
			if cur.typ == "histogram" {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if strings.HasSuffix(name, suf) {
						base = strings.TrimSuffix(name, suf)
						break
					}
				}
			}
			if base != cur.name {
				t.Fatalf("line %d: sample %s outside its family (current family %s)", lineNo, name, cur.name)
			}
			cur.samples = append(cur.samples, expoSample{name: name, labels: labels, value: value, line: lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if pendingHelpName != "" {
		t.Fatalf("trailing HELP %s without TYPE", pendingHelpName)
	}
	return families
}

// seriesKey identifies one time series: name plus sorted label pairs.
func seriesKey(s expoSample) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range keys {
		fmt.Fprintf(&b, `|%s=%s`, k, s.labels[k])
	}
	return b.String()
}

// scrapeMetrics fetches /metrics from a running test server.
func scrapeMetrics(t *testing.T, srv *Server) string {
	t.Helper()
	resp, err := http.Get("http://" + srv.HTTPAddr().String() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("GET /metrics: content-type %q", ct)
	}
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return b.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	buf := new(strings.Builder)
	if _, err := bufio.NewReader(resp.Body).WriteTo(buf); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return buf.String()
}

// populate drives real traffic so counters, gauges and histograms are all
// non-trivial before the scrape.
func populateMetrics(t *testing.T, srv *Server) {
	t.Helper()
	c := dial(t, srv)
	do(t, c, "CREATE", "conf", "64")
	for i := 0; i < 50; i++ {
		do(t, c, "INSERT", "conf", strconv.Itoa(i), "payload")
	}
	for i := 0; i < 50; i++ {
		do(t, c, "GET", "conf", strconv.Itoa(i))
		do(t, c, "UPDATE", "conf", strconv.Itoa(i), "0", "x")
	}
	doErr(t, c, codeNotFound, "GET", "conf", "9999")
	do(t, c, "STATS")
}

// TestMetricsConformance validates the full scrape against the exposition
// grammar and the histogram invariants.
func TestMetricsConformance(t *testing.T) {
	srv, db := newTestServer(t)
	_ = db
	populateMetrics(t, srv)
	body := scrapeMetrics(t, srv)
	families := parseExposition(t, body)

	// Every series is unique across the whole scrape.
	seen := make(map[string]int)
	for _, fam := range families {
		for _, s := range fam.samples {
			k := seriesKey(s)
			if prev, dup := seen[k]; dup {
				t.Errorf("duplicate series %s (lines %d and %d)", k, prev, s.line)
			}
			seen[k] = s.line
		}
	}

	// Families the ops surface contracts to expose (docs/DESIGN_OPS.md).
	for _, want := range []string{
		"ipa_committed_txns_total",
		"ipa_group_commit_batch_mean",
		"ipa_device_erase_budget",
		"ipa_device_life_burned_ratio",
		"ipa_device_time_to_death_seconds",
		"ipa_device_erases_avoided_total",
		"ipa_window_tps",
		"ipa_window_evictions_per_sec",
		"ipa_window_in_place_share",
		"ipa_window_erase_rate_per_sec",
		"ipa_chip_erases_total",
		"ipa_chip_busy_seconds",
		"ipa_server_connections_total",
		"ipa_server_command_seconds",
		// Counters the hand-kept list left out, rendered from their sets.
		"ipa_host_writes_total",
		"ipa_invalidations_total",
		"ipa_flash_delta_programs_total",
		"ipa_ipa_append_evictions_total",
		"ipa_append_fallbacks_total",
		"ipa_eviction_size_histogram_total",
		"ipa_chip_gc_runs_total",
	} {
		if _, ok := families[want]; !ok {
			t.Errorf("family %s missing from scrape", want)
		}
	}

	// Counters and gauges carry finite, non-negative values (nothing in
	// this exposition may legally go negative or NaN).
	for _, fam := range families {
		for _, s := range fam.samples {
			if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
				t.Errorf("%s (line %d): non-finite value %v", s.name, s.line, s.value)
			}
			if s.value < 0 {
				t.Errorf("%s (line %d): negative value %v", s.name, s.line, s.value)
			}
		}
	}

	checkHistogramFamily(t, families["ipa_server_command_seconds"])
}

// checkHistogramFamily enforces the histogram invariants per label set:
// buckets cumulative (monotone non-decreasing in le order), a +Inf bucket
// present and equal to _count, _sum present.
func checkHistogramFamily(t *testing.T, fam *expoFamily) {
	t.Helper()
	if fam == nil {
		t.Fatal("histogram family missing")
	}
	if fam.typ != "histogram" {
		t.Fatalf("ipa_server_command_seconds: TYPE %q, want histogram", fam.typ)
	}
	type histState struct {
		bounds []float64
		counts []float64
		inf    float64
		hasInf bool
		sum    float64
		hasSum bool
		count  float64
		hasCnt bool
	}
	byCmd := make(map[string]*histState)
	get := func(cmd string) *histState {
		h, ok := byCmd[cmd]
		if !ok {
			h = &histState{}
			byCmd[cmd] = h
		}
		return h
	}
	for _, s := range fam.samples {
		cmd := s.labels["cmd"]
		if cmd == "" {
			t.Errorf("line %d: histogram sample without cmd label", s.line)
			continue
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le := s.labels["le"]
			if le == "" {
				t.Errorf("line %d: bucket without le label", s.line)
				continue
			}
			h := get(cmd)
			if le == "+Inf" {
				h.inf, h.hasInf = s.value, true
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Errorf("line %d: unparsable le %q", s.line, le)
				continue
			}
			h.bounds = append(h.bounds, bound)
			h.counts = append(h.counts, s.value)
		case strings.HasSuffix(s.name, "_sum"):
			h := get(cmd)
			h.sum, h.hasSum = s.value, true
		case strings.HasSuffix(s.name, "_count"):
			h := get(cmd)
			h.count, h.hasCnt = s.value, true
		default:
			t.Errorf("line %d: unexpected sample %s in histogram family", s.line, s.name)
		}
	}
	if len(byCmd) != len(commandNames) {
		t.Errorf("histogram exposes %d commands, registry has %d", len(byCmd), len(commandNames))
	}
	var ran int
	for cmd, h := range byCmd {
		if !h.hasInf || !h.hasSum || !h.hasCnt {
			t.Errorf("%s: incomplete histogram (inf=%v sum=%v count=%v)", cmd, h.hasInf, h.hasSum, h.hasCnt)
			continue
		}
		for i := 1; i < len(h.bounds); i++ {
			if h.bounds[i] <= h.bounds[i-1] {
				t.Errorf("%s: le bounds not strictly increasing at %v <= %v", cmd, h.bounds[i], h.bounds[i-1])
			}
			if h.counts[i] < h.counts[i-1] {
				t.Errorf("%s: bucket counts not cumulative: bucket(le=%v)=%v < bucket(le=%v)=%v",
					cmd, h.bounds[i], h.counts[i], h.bounds[i-1], h.counts[i-1])
			}
		}
		if n := len(h.counts); n > 0 && h.inf < h.counts[n-1] {
			t.Errorf("%s: +Inf bucket %v below last finite bucket %v", cmd, h.inf, h.counts[n-1])
		}
		if h.inf != h.count {
			t.Errorf("%s: +Inf bucket %v != _count %v", cmd, h.inf, h.count)
		}
		if h.count > 0 {
			ran++
			if h.sum < 0 {
				t.Errorf("%s: negative _sum %v", cmd, h.sum)
			}
		}
	}
	// populateMetrics ran CREATE/INSERT/GET/UPDATE/STATS at minimum.
	if ran < 5 {
		t.Errorf("only %d commands recorded latency; populate should have driven at least 5", ran)
	}
}

// TestMetricsStableAcrossScrapes checks that two consecutive scrapes
// expose the identical set of series (values move, the schema does not).
func TestMetricsStableAcrossScrapes(t *testing.T) {
	srv, _ := newTestServer(t)
	populateMetrics(t, srv)
	keys := func(body string) []string {
		fams := parseExposition(t, body)
		var out []string
		for _, fam := range fams {
			for _, s := range fam.samples {
				out = append(out, seriesKey(s))
			}
		}
		sort.Strings(out)
		return out
	}
	a := keys(scrapeMetrics(t, srv))
	b := keys(scrapeMetrics(t, srv))
	if len(a) != len(b) {
		t.Fatalf("series count changed across scrapes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("series set changed across scrapes: %q vs %q", a[i], b[i])
		}
	}
}

// observeLatency records d as one execution of the named command by a
// session on the given row of the latency distributions (taken modulo
// the row count).
func observeLatency(srv *Server, row int, name string, d time.Duration) {
	srv.lat[row%len(srv.lat)][commands[name].id].Observe(d)
}

// TestLatencyRowsShareNoCacheLine pins what keeps recording contention
// free: two sessions on different rows of the latency distributions must
// not write to one 64-byte line, so no two rows may share one.
func TestLatencyRowsShareNoCacheLine(t *testing.T) {
	srv, _ := newTestServer(t)
	type span struct{ first, last uintptr } // the rows' first and last cache lines
	var spans []span
	for _, row := range srv.lat {
		start := uintptr(unsafe.Pointer(unsafe.SliceData(row)))
		end := start + uintptr(len(row))*unsafe.Sizeof(row[0])
		spans = append(spans, span{start / 64, (end - 1) / 64})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].first < spans[j].first })
	for i := 1; i < len(spans); i++ {
		if spans[i].first <= spans[i-1].last {
			t.Fatalf("two latency rows share cache line %#x", spans[i].first*64)
		}
	}
}
