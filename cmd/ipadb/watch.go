package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"ipa"
	"ipa/internal/server"
)

// watchMain implements `ipadb watch`: poll a running ipaserver's
// /stats.json and redraw a terminal view of the ops gauges each tick.
// -n bounds the number of frames (CI runs `-n 1 -plain`); 0 polls until
// interrupted.
func watchMain(args []string) int {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	var (
		url      = fs.String("url", "http://127.0.0.1:6390", "ipaserver HTTP sidecar base URL")
		interval = fs.Duration("interval", time.Second, "poll period")
		frames   = fs.Int("n", 0, "number of frames to render (0 = until interrupted)")
		plain    = fs.Bool("plain", false, "no screen clearing between frames (for logs and CI)")
	)
	fs.Parse(args)

	base := strings.TrimSuffix(*url, "/")
	for i := 0; *frames <= 0 || i < *frames; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		doc, err := fetchStats(base + "/stats.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipadb watch: %v\n", err)
			return 1
		}
		if !*plain {
			fmt.Print("\033[H\033[2J") // cursor home + clear screen
		}
		renderWatch(os.Stdout, doc)
	}
	return 0
}

// fetchStats GETs and decodes one /stats.json document.
func fetchStats(url string) (*server.StatsDoc, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var doc server.StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return &doc, nil
}

// renderWatch draws one frame.
func renderWatch(w io.Writer, d *server.StatsDoc) {
	eng, ops := d.Engine, d.Ops
	state := "serving"
	if d.Draining {
		state = "DRAINING"
	}
	fmt.Fprintf(w, "ipaserver %s  %s %s  uptime %s  virtual %s\n",
		state, d.Mode, eng.Scheme,
		(time.Duration(d.UptimeSec * float64(time.Second))).Round(time.Second),
		(time.Duration(d.VirtualMS * float64(time.Millisecond))).Round(time.Millisecond))
	fmt.Fprintf(w, "conns %d (total %d)  commands %d  errors %d\n\n",
		d.Server.ConnectionsCurrent, d.Server.Connections,
		d.Server.Commands, d.Server.ErrorReplies)

	renderOps(w, ops)

	if len(eng.ChipStats) > 0 {
		fmt.Fprintf(w, "\nchip wear (lifetime erases)\n")
		var max uint64 = 1
		for _, c := range eng.ChipStats {
			if c.BlockErases > max {
				max = c.BlockErases
			}
		}
		for _, c := range eng.ChipStats {
			bar := strings.Repeat("#", int(c.BlockErases*40/max))
			fmt.Fprintf(w, "  chip %-2d %8d %s\n", c.Chip, c.BlockErases, bar)
		}
	}

	if len(d.Latency) > 0 {
		fmt.Fprintf(w, "\n%-12s %10s %10s %10s %10s %10s\n", "command", "count", "mean µs", "p50 µs", "p95 µs", "p99 µs")
		names := make([]string, 0, len(d.Latency))
		for name := range d.Latency {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			if d.Latency[names[i]].Count != d.Latency[names[j]].Count {
				return d.Latency[names[i]].Count > d.Latency[names[j]].Count
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			l := d.Latency[name]
			fmt.Fprintf(w, "%-12s %10d %10.1f %10.1f %10.1f %10.1f\n",
				name, l.Count, l.MeanUS, l.P50US, l.P95US, l.P99US)
		}
	}
}

// renderOps prints the derived gauges.
func renderOps(w io.Writer, o ipa.OpsStats) {
	fmt.Fprintf(w, "device life burned   %8.4f%%  (%d of %d erases)\n",
		o.LifeBurned*100, o.ErasesConsumed, o.EraseBudget)
	if o.TimeToDeath > 0 {
		fmt.Fprintf(w, "time to death        %8s   (virtual, at current erase rate)\n", o.TimeToDeath.Round(time.Second))
	} else {
		fmt.Fprintf(w, "time to death        %8s\n", "∞")
	}
	fmt.Fprintf(w, "erases avoided       %8d   (vs out-of-place baseline %d)\n", o.ErasesAvoided, o.BaselineErases)
	fmt.Fprintf(w, "window               %8s   virtual (%d samples)\n", o.WindowVirtual.Round(time.Millisecond), o.Samples)
	fmt.Fprintf(w, "  tps                %10.1f/s\n", o.WindowTPS)
	fmt.Fprintf(w, "  evictions          %10.1f/s\n", o.WindowEvictionsPerSec)
	fmt.Fprintf(w, "  erase rate         %10.3f/s\n", o.WindowEraseRatePerSec)
	fmt.Fprintf(w, "  in-place share     %9.1f%%\n", o.WindowInPlaceShare*100)
}
