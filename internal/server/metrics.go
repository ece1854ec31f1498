package server

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"ipa/internal/stat"
)

// Prometheus text exposition (/metrics). Every family is written as a
// HELP/TYPE pair followed by its samples; histogram families follow the
// _bucket/_sum/_count convention with cumulative `le` buckets ending at
// +Inf. internal/server/metrics_test.go validates the whole scrape
// against the exposition grammar, so a malformed metric cannot ship.

// family writes the HELP/TYPE header of one metric family.
func family(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeSets renders every field stat.Each yields from the structs as a
// sample of the family metricName derives for it, the families sorted by
// name and the samples of each (the chips', an array's) under its header.
func writeSets(w io.Writer, prefix string, sets ...any) {
	families := make(map[string]*strings.Builder)
	for _, set := range sets {
		stat.Each(set, func(f stat.Field) {
			name, labels, v := metricName(prefix, f), "", f.Value()
			b := families[name]
			if b == nil {
				b = new(strings.Builder)
				families[name] = b
				typ := "gauge"
				if strings.HasSuffix(name, "_total") {
					typ = "counter"
				}
				// HELP names the Go field, whose comment says what it counts.
				family(b, name, fmt.Sprintf("%s (%s).", strings.TrimPrefix(f.Set+"."+f.Name, "."), cmp.Or(f.Kind, "window")), typ)
			}
			if f.Elem >= 0 {
				labels = fmt.Sprintf("{%s=\"%d\"}", cmp.Or(f.Label, "bucket"), f.Elem)
			}
			if d, ok := v.(time.Duration); ok {
				v = d.Seconds()
			}
			fmt.Fprintf(b, "%s%s %v\n", name, labels, v)
		})
	}
	for _, name := range slices.Sorted(maps.Keys(families)) {
		io.WriteString(w, families[name].String())
	}
}

// metricName derives a field's family name: its metric tag, or else the
// prefix, the label of the slice of sets it belongs to and its Go name in
// snake case, with _seconds for a duration and _total for a count.
func metricName(prefix string, f stat.Field) string {
	if f.Metric != "" {
		return f.Metric
	}
	if f.Label != "" {
		prefix += f.Label + "_"
	}
	name := prefix + strings.ToLower(wordStart.ReplaceAllString(f.Name, "${1}${3}_${2}${4}"))
	if _, ok := f.Value().(time.Duration); ok {
		name += "_seconds"
	}
	if f.Kind == "" || f.Kind == "lifetime" {
		name += "_total"
	}
	return name
}

// wordStart finds where a word of a Go name begins, an initialism counting
// as one word: GCMigrations is gc_migrations, CheckpointLSN checkpoint_lsn.
var wordStart = regexp.MustCompile(`([a-z])([A-Z])|([A-Z])([A-Z][a-z])`)

// handleMetrics renders the engine's counter sets, the derived ops gauges
// and the server's counters from their declarations, then the group-commit
// batch mean, the uptime and the per-command latency histograms. Each
// scrape takes an ops reading, so the window is the span since the last.
func (srv *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	srv.db.SampleOps()
	st := srv.db.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeSets(w, "ipa_", st, srv.db.Ops())
	writeSets(w, "ipa_server_", stat.Load(&srv.counts))
	family(w, "ipa_group_commit_batch_mean", "Mean commit requests served per physical WAL flush.", "gauge")
	fmt.Fprintf(w, "ipa_group_commit_batch_mean %v\n", st.CommitsPerFlush())
	family(w, "ipa_server_uptime_seconds", "Seconds since the server started.", "gauge")
	fmt.Fprintf(w, "ipa_server_uptime_seconds %d\n", int64(time.Since(srv.started).Seconds()))

	// Per-command latency histograms: one family, one series set per
	// command, cumulative buckets ending at +Inf.
	family(w, "ipa_server_command_seconds", "Wall-clock latency of a command, by command: from the end of the previous command, or the socket read that delivered it, to the end of its execution.", "histogram")
	for _, name := range commandNames {
		s := srv.lat.cmds[commands[name].id].snapshot()
		var cum uint64
		for i := 0; i < histBucketCount; i++ {
			cum += s.Counts[i]
			le := strconv.FormatFloat(histBounds[i].Seconds(), 'g', -1, 64) // "1e-06", "0.000512", …
			fmt.Fprintf(w, "ipa_server_command_seconds_bucket{cmd=%q,le=%q} %d\n", name, le, cum)
		}
		cum += s.Counts[histBucketCount]
		fmt.Fprintf(w, "ipa_server_command_seconds_bucket{cmd=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "ipa_server_command_seconds_sum{cmd=%q} %v\n", name, s.Sum.Seconds())
		fmt.Fprintf(w, "ipa_server_command_seconds_count{cmd=%q} %d\n", name, s.Count)
	}
}
