package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestLatencyExposition records a fixed sequence of durations, as if from
// many sessions, and compares what /metrics and /stats.json make of them
// with literal text: the whole ipa_server_command_seconds family for the
// recorded commands and an idle one, and the latency object. The durations
// sit on every bucket bound, one nanosecond either side of it, at zero,
// below zero and past the last finite bound, so a bucket rule, a merge or
// a quantile that moves by one observation changes a byte here.
func TestLatencyExposition(t *testing.T) {
	srv, _ := newTestServer(t)
	var seq []time.Duration
	for b := time.Microsecond; b <= 1<<19*time.Microsecond; b *= 2 {
		seq = append(seq, b-time.Nanosecond, b, b+time.Nanosecond)
	}
	seq = append(seq, 0, -5*time.Nanosecond, time.Nanosecond, time.Second, time.Hour)
	for i, d := range seq {
		observeLatency(srv, i, "GET", d)
	}
	for i, d := range []time.Duration{17 * time.Microsecond, 43 * time.Microsecond, 43 * time.Microsecond, 700 * time.Microsecond, 3 * time.Second} {
		observeLatency(srv, i*5, "INSERT", d)
	}
	observeLatency(srv, 3, "UPDATE", 1234567*time.Nanosecond)

	rec := httptest.NewRecorder()
	srv.handleMetrics(rec, nil)
	var got []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.Contains(line, "ipa_server_command_seconds") {
			continue
		}
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, `cmd="GET"`) && !strings.Contains(line, `cmd="INSERT"`) &&
			!strings.Contains(line, `cmd="UPDATE"`) && !strings.Contains(line, `cmd="PING"`) {
			continue
		}
		got = append(got, line)
	}
	if g := strings.Join(got, "\n") + "\n"; g != wantCommandSeconds {
		t.Errorf("ipa_server_command_seconds:\n%s\nwant:\n%s", g, wantCommandSeconds)
	}

	rec = httptest.NewRecorder()
	srv.handleStatsJSON(rec, nil)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if g := string(doc["latency"]); g != wantLatencyJSON {
		t.Errorf("/stats.json latency:\n%s\nwant:\n%s", g, wantLatencyJSON)
	}
}

const wantCommandSeconds = `# HELP ipa_server_command_seconds Wall-clock latency of a command, by command: from the end of the previous command, or the socket read that delivered it, to the end of its execution.
# TYPE ipa_server_command_seconds histogram
ipa_server_command_seconds_bucket{cmd="GET",le="1e-06"} 5
ipa_server_command_seconds_bucket{cmd="GET",le="2e-06"} 8
ipa_server_command_seconds_bucket{cmd="GET",le="4e-06"} 11
ipa_server_command_seconds_bucket{cmd="GET",le="8e-06"} 14
ipa_server_command_seconds_bucket{cmd="GET",le="1.6e-05"} 17
ipa_server_command_seconds_bucket{cmd="GET",le="3.2e-05"} 20
ipa_server_command_seconds_bucket{cmd="GET",le="6.4e-05"} 23
ipa_server_command_seconds_bucket{cmd="GET",le="0.000128"} 26
ipa_server_command_seconds_bucket{cmd="GET",le="0.000256"} 29
ipa_server_command_seconds_bucket{cmd="GET",le="0.000512"} 32
ipa_server_command_seconds_bucket{cmd="GET",le="0.001024"} 35
ipa_server_command_seconds_bucket{cmd="GET",le="0.002048"} 38
ipa_server_command_seconds_bucket{cmd="GET",le="0.004096"} 41
ipa_server_command_seconds_bucket{cmd="GET",le="0.008192"} 44
ipa_server_command_seconds_bucket{cmd="GET",le="0.016384"} 47
ipa_server_command_seconds_bucket{cmd="GET",le="0.032768"} 50
ipa_server_command_seconds_bucket{cmd="GET",le="0.065536"} 53
ipa_server_command_seconds_bucket{cmd="GET",le="0.131072"} 56
ipa_server_command_seconds_bucket{cmd="GET",le="0.262144"} 59
ipa_server_command_seconds_bucket{cmd="GET",le="0.524288"} 62
ipa_server_command_seconds_bucket{cmd="GET",le="+Inf"} 65
ipa_server_command_seconds_sum{cmd="GET"} 3604.145725001
ipa_server_command_seconds_count{cmd="GET"} 65
ipa_server_command_seconds_bucket{cmd="INSERT",le="1e-06"} 0
ipa_server_command_seconds_bucket{cmd="INSERT",le="2e-06"} 0
ipa_server_command_seconds_bucket{cmd="INSERT",le="4e-06"} 0
ipa_server_command_seconds_bucket{cmd="INSERT",le="8e-06"} 0
ipa_server_command_seconds_bucket{cmd="INSERT",le="1.6e-05"} 0
ipa_server_command_seconds_bucket{cmd="INSERT",le="3.2e-05"} 1
ipa_server_command_seconds_bucket{cmd="INSERT",le="6.4e-05"} 3
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.000128"} 3
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.000256"} 3
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.000512"} 3
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.001024"} 4
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.002048"} 4
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.004096"} 4
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.008192"} 4
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.016384"} 4
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.032768"} 4
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.065536"} 4
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.131072"} 4
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.262144"} 4
ipa_server_command_seconds_bucket{cmd="INSERT",le="0.524288"} 4
ipa_server_command_seconds_bucket{cmd="INSERT",le="+Inf"} 5
ipa_server_command_seconds_sum{cmd="INSERT"} 3.000803
ipa_server_command_seconds_count{cmd="INSERT"} 5
ipa_server_command_seconds_bucket{cmd="PING",le="1e-06"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="2e-06"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="4e-06"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="8e-06"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="1.6e-05"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="3.2e-05"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="6.4e-05"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.000128"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.000256"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.000512"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.001024"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.002048"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.004096"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.008192"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.016384"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.032768"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.065536"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.131072"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.262144"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="0.524288"} 0
ipa_server_command_seconds_bucket{cmd="PING",le="+Inf"} 0
ipa_server_command_seconds_sum{cmd="PING"} 0
ipa_server_command_seconds_count{cmd="PING"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="1e-06"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="2e-06"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="4e-06"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="8e-06"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="1.6e-05"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="3.2e-05"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="6.4e-05"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.000128"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.000256"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.000512"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.001024"} 0
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.002048"} 1
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.004096"} 1
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.008192"} 1
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.016384"} 1
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.032768"} 1
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.065536"} 1
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.131072"} 1
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.262144"} 1
ipa_server_command_seconds_bucket{cmd="UPDATE",le="0.524288"} 1
ipa_server_command_seconds_bucket{cmd="UPDATE",le="+Inf"} 1
ipa_server_command_seconds_sum{cmd="UPDATE"} 0.001234567
ipa_server_command_seconds_count{cmd="UPDATE"} 1
`

const wantLatencyJSON = `{
  "GET": {
   "count": 65,
   "mean_us": 55448395.769,
   "p50_us": 597.333,
   "p95_us": 502442.666,
   "p99_us": 524288
  },
  "INSERT": {
   "count": 5,
   "mean_us": 600160.6,
   "p50_us": 56,
   "p95_us": 524288,
   "p99_us": 524288
  },
  "UPDATE": {
   "count": 1,
   "mean_us": 1234.567,
   "p50_us": 1536,
   "p95_us": 1996.8,
   "p99_us": 2037.76
  }
 }`
