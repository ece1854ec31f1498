// Command ipaserver serves an ipa engine over the network: a RESP-
// compatible TCP listener (redis-cli works for the simple verbs, ipaclient
// and cmd/ipaload for everything) plus an HTTP sidecar with /healthz,
// Prometheus-style /metrics (per-command latency histograms, lifetime
// burn gauges), the /stats.json ops document and the live /dashboard.
// SIGINT/SIGTERM trigger a graceful shutdown: the commands every session
// has already received are answered, a final fuzzy checkpoint is taken,
// the engine closes. The wire protocol is specified in
// docs/DESIGN_SERVER.md.
//
// Usage:
//
//	ipaserver -addr :6389 -http :6390 -mode native -n 2 -m 4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ipa"
	"ipa/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":6389", "RESP listener address")
		httpAddr = flag.String("http", ":6390", "health/metrics sidecar address ('' disables)")
		workers  = flag.Int("workers", 0, "engine worker lanes (0 = chips × GOMAXPROCS)")
		grace    = flag.Duration("grace", 10*time.Second, "graceful-shutdown drain deadline")

		mode   = flag.String("mode", "native", "write mode: traditional, ssd or native")
		n      = flag.Int("n", 2, "IPA scheme parameter N")
		m      = flag.Int("m", 4, "IPA scheme parameter M")
		flash  = flag.String("flash", "pslc", "flash mode: pslc, oddmlc or mlc")
		chips  = flag.Int("chips", 4, "NAND chips (parallel recovery and GC lanes)")
		blocks = flag.Int("blocks", 0, "erase blocks per chip (0 = engine default; shrink to watch wear)")
		pages  = flag.Int("pages-per-block", 0, "pages per erase block (0 = engine default)")
		pool   = flag.Int("pool", 0, "buffer pool pages (0 = engine default)")
		ckpt   = flag.Uint64("checkpoint-bytes", 4<<20, "WAL bytes between fuzzy checkpoints (0 disables)")
	)
	flag.Parse()

	cfg, err := withModes(ipa.Config{
		Chips:                *chips,
		Blocks:               *blocks,
		PagesPerBlock:        *pages,
		BufferPoolPages:      *pool,
		Scheme:               ipa.Scheme{N: *n, M: *m},
		CheckpointEveryBytes: *ckpt,
	}, *mode, *flash)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipaserver: %v\n", err)
		os.Exit(2)
	}

	db, err := ipa.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipaserver: %v\n", err)
		os.Exit(1)
	}

	srv := server.New(db, server.Config{
		Addr:     *addr,
		HTTPAddr: *httpAddr,
		Workers:  *workers,
		Logf:     log.Printf,
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "ipaserver: %v\n", err)
		db.Close()
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("ipaserver: %s, draining (deadline %s)", s, *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ipaserver: shutdown: %v\n", err)
		os.Exit(1)
	}
}

// withModes sets cfg's write and flash modes from the -mode and -flash
// flags (the traditional write path runs without a scheme). An unknown
// name is an error that lists the accepted ones.
func withModes(cfg ipa.Config, mode, flash string) (ipa.Config, error) {
	writeModes := map[string]ipa.WriteMode{"traditional": ipa.Traditional, "ssd": ipa.IPAConventionalSSD, "native": ipa.IPANativeFlash}
	flashModes := map[string]ipa.FlashMode{"pslc": ipa.PSLC, "oddmlc": ipa.OddMLC, "mlc": ipa.MLCFull}
	var ok bool
	if cfg.WriteMode, ok = writeModes[mode]; !ok {
		return cfg, fmt.Errorf("unknown -mode %q (want traditional, ssd or native)", mode)
	}
	if cfg.FlashMode, ok = flashModes[flash]; !ok {
		return cfg, fmt.Errorf("unknown -flash %q (want pslc, oddmlc or mlc)", flash)
	}
	if cfg.WriteMode == ipa.Traditional {
		cfg.Scheme = ipa.Scheme{}
	}
	return cfg, nil
}
