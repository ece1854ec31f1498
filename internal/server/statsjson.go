package server

import (
	"encoding/json"
	"net/http"
	"time"

	"ipa"
	"ipa/internal/stat"
)

// /stats.json: the machine-readable ops document behind the embedded
// dashboard and `ipadb watch`. The schema is specified in
// docs/DESIGN_OPS.md; StatsDoc is exported so Go tooling (cmd/ipadb)
// decodes the same shape the server encodes.

// StatsDoc is the /stats.json document: a point-in-time view of the
// engine counters, the derived ops gauges, the wire-level counters and a
// per-command latency summary.
type StatsDoc struct {
	// Now is the wall-clock scrape time; VirtualMS the engine's virtual
	// device clock in milliseconds.
	Now       time.Time `json:"now"`
	UptimeSec float64   `json:"uptime_seconds"`
	VirtualMS float64   `json:"virtual_ms"`
	Draining  bool      `json:"draining"`
	// Mode is the engine write mode as text (Engine.Mode is its numeric
	// form), so dashboards need no mode table.
	Mode string `json:"mode"`

	// Engine is the full ipa.Stats snapshot (Go field names, the same
	// shape the STATS JSON wire command returns); Ops the derived gauges.
	Engine ipa.Stats    `json:"engine"`
	Ops    ipa.OpsStats `json:"ops"`

	Server  ServerCounters            `json:"server"`
	Latency map[string]LatencySummary `json:"latency"`
}

// ServerCounters are the wire-level counters since the server started. The
// server's own value is the live set; INFO, /metrics and /stats.json copy it.
type ServerCounters struct {
	ConnectionsCurrent uint64 `json:"connections_current" stat:"gauge"`
	Connections        uint64 `json:"connections_total" stat:"lifetime"` // accepted
	Commands           uint64 `json:"commands_total" stat:"lifetime"`    // executed
	ErrorReplies       uint64 `json:"error_replies_total" stat:"lifetime"`
}

// LatencySummary condenses one command's histogram for humans and
// dashboards; the full bucket vector stays on /metrics.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

// statsDoc assembles the document.
func (srv *Server) statsDoc() StatsDoc {
	srv.db.SampleOps()
	doc := StatsDoc{
		Now:       time.Now(),
		UptimeSec: time.Since(srv.started).Seconds(),
		VirtualMS: float64(srv.db.Now()) / float64(time.Millisecond),
		Draining:  srv.draining.Load(),
		Mode:      srv.db.Config().WriteMode.String(),
		Engine:    srv.db.Stats(),
		Ops:       srv.db.Ops(),
		Server:    stat.Load(&srv.counts),
		Latency:   make(map[string]LatencySummary),
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for name, s := range srv.lat.snapshot() {
		if s.Count == 0 {
			continue // only commands that have actually run
		}
		doc.Latency[name] = LatencySummary{
			Count:  s.Count,
			MeanUS: us(s.mean()),
			P50US:  us(s.quantile(0.50)),
			P95US:  us(s.quantile(0.95)),
			P99US:  us(s.quantile(0.99)),
		}
	}
	return doc
}

// handleStatsJSON serves the document.
func (srv *Server) handleStatsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(srv.statsDoc()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
