// Package server implements ipaserver's network front end: a TCP listener
// speaking the RESP-compatible wire protocol of internal/proto, one
// goroutine per connection decoding, executing and answering its commands
// in order on an embedded ipa.DB, a worker pool bounding engine
// concurrency at chips × GOMAXPROCS, and an HTTP sidecar exposing /healthz,
// Prometheus-style /metrics (with per-command latency histograms), the
// machine-readable /stats.json ops document, and the embedded live
// /dashboard.
//
// The protocol — frame grammar, command set, error-code table, pipelining
// and transaction-session semantics, and the graceful-shutdown contract —
// is specified in docs/DESIGN_SERVER.md; internal/server/spec_test.go
// fails if a command or error code exists here without being documented
// there.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ipa"
)

// Config configures a Server.
type Config struct {
	// Addr is the RESP listener address (e.g. ":6389"; ":0" picks a free
	// port, which tests use).
	Addr string
	// HTTPAddr is the health/metrics sidecar address ("" disables it).
	HTTPAddr string
	// Workers bounds how many commands may execute inside the engine at
	// once, across all sessions. Default: Chips × GOMAXPROCS — one lane
	// per plane of hardware parallelism the simulated device offers.
	Workers int
	// Logf, when set, receives one line per lifecycle event (connections
	// are not logged individually). nil discards.
	Logf func(format string, args ...any)
}

// Server serves an ipa.DB over the wire protocol.
type Server struct {
	db  *ipa.DB
	cfg Config

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server
	lanes   lanes

	mu       sync.Mutex
	sessions map[*session]struct{}

	// draining flips the health endpoint to 503 and marks the shutdown
	// drain; shut ensures the shutdown sequence runs once.
	draining atomic.Bool
	shut     sync.Once
	shutErr  error

	// acceptWG tracks the accept loop, sessWG every session.
	acceptWG sync.WaitGroup
	sessWG   sync.WaitGroup

	// The live set of wire-level counters, and the start of the uptime.
	counts  ServerCounters
	started time.Time

	// lat holds the per-command latency histograms; nextShard deals a
	// shard index to each new session so recorders spread across shards.
	lat       *latencies
	nextShard atomic.Uint64

	// poisonArgs is a test hook, set before Start: sessions overwrite a
	// command's arguments with 0xA5 as soon as execute returns, so anything
	// that kept an alias of the read buffer reads garbage.
	poisonArgs bool
}

// New wraps db in a Server. Start must be called to begin serving.
func New(db *ipa.DB, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = db.Config().Chips * runtime.GOMAXPROCS(0)
		if cfg.Workers < 1 {
			cfg.Workers = 1
		}
	}
	return &Server{
		db:       db,
		cfg:      cfg,
		lanes:    lanes{wake: make(chan struct{}, cfg.Workers)},
		sessions: make(map[*session]struct{}),
		started:  time.Now(),
		lat:      newLatencies(latencyShards()),
	}
}

// lanes admits at most cap(wake) commands into the engine at once: n
// counts the commands inside and waiting, and a command that finds every
// lane taken waits on wake, where a leaving command hands over its lane.
// The buffer lets the hand-over complete before its waiter gets there.
type lanes struct {
	n    atomic.Int64
	wake chan struct{}
}

func (l *lanes) acquire() {
	if l.n.Add(1) > int64(cap(l.wake)) {
		<-l.wake
	}
}

func (l *lanes) release() {
	if l.n.Add(-1) >= int64(cap(l.wake)) {
		l.wake <- struct{}{}
	}
}

// clock reads the server's monotonic clock: the time since it started.
func (srv *Server) clock() time.Duration { return time.Since(srv.started) }

// logf emits one lifecycle log line, if logging is configured.
func (srv *Server) logf(format string, args ...any) {
	if srv.cfg.Logf != nil {
		srv.cfg.Logf(format, args...)
	}
}

// Start binds the listeners and begins accepting connections. It returns
// once the server is reachable; serving continues in the background until
// Shutdown or Close.
func (srv *Server) Start() error {
	ln, err := net.Listen("tcp", srv.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", srv.cfg.Addr, err)
	}
	srv.ln = ln
	if srv.cfg.HTTPAddr != "" {
		httpLn, err := net.Listen("tcp", srv.cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("server: http listen %s: %w", srv.cfg.HTTPAddr, err)
		}
		srv.httpLn = httpLn
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", srv.handleHealthz)
		mux.HandleFunc("/metrics", srv.handleMetrics)
		mux.HandleFunc("/stats.json", srv.handleStatsJSON)
		mux.HandleFunc("/dashboard", srv.handleDashboard)
		srv.httpSrv = &http.Server{Handler: mux}
		go func() {
			if err := srv.httpSrv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				srv.logf("server: http sidecar: %v", err)
			}
		}()
	}
	srv.acceptWG.Add(1)
	go srv.acceptLoop()
	srv.logf("server: listening on %s (workers=%d http=%s)",
		ln.Addr(), srv.cfg.Workers, srv.cfg.HTTPAddr)
	return nil
}

// Addr returns the bound RESP listener address.
func (srv *Server) Addr() net.Addr { return srv.ln.Addr() }

// HTTPAddr returns the bound sidecar address, or nil when disabled.
func (srv *Server) HTTPAddr() net.Addr {
	if srv.httpLn == nil {
		return nil
	}
	return srv.httpLn.Addr()
}

// acceptLoop admits connections until the listener closes.
func (srv *Server) acceptLoop() {
	defer srv.acceptWG.Done()
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown/Close
		}
		if srv.draining.Load() {
			conn.Close()
			continue
		}
		srv.startSession(conn)
	}
}

// startSession registers a session for conn and serves it on its own
// goroutine.
func (srv *Server) startSession(conn net.Conn) {
	atomic.AddUint64(&srv.counts.Connections, 1)
	atomic.AddUint64(&srv.counts.ConnectionsCurrent, 1)
	sess := newSession(srv, conn)
	srv.mu.Lock()
	srv.sessions[sess] = struct{}{}
	srv.mu.Unlock()
	srv.sessWG.Add(1)
	go sess.serve()
}

// dropSession unregisters a finished session.
func (srv *Server) dropSession(s *session) {
	srv.mu.Lock()
	delete(srv.sessions, s)
	srv.mu.Unlock()
	atomic.AddUint64(&srv.counts.ConnectionsCurrent, ^uint64(0))
	srv.sessWG.Done()
}

// Shutdown stops the server gracefully: the listener closes, /healthz
// flips to 503, every session stops reading from its socket and finishes
// the pipelined commands it has already read off it (their replies are
// flushed), open transactions of departing sessions are aborted, a final
// fuzzy checkpoint is taken, and the engine is closed. If ctx expires
// before all sessions drain, their connections are closed; commands that
// race past the engine's close answer with the CLOSED wire error instead
// of a dropped connection.
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.shut.Do(func() { srv.shutErr = srv.shutdown(ctx) })
	return srv.shutErr
}

func (srv *Server) shutdown(ctx context.Context) error {
	srv.logf("server: shutting down (draining %d sessions)", atomic.LoadUint64(&srv.counts.ConnectionsCurrent))
	srv.draining.Store(true)
	srv.ln.Close()
	srv.acceptWG.Wait()

	// Ask every session to drain: stop reading from the socket, finish
	// what is already in the read buffer, flush, hang up.
	srv.mu.Lock()
	for s := range srv.sessions {
		s.drain()
	}
	srv.mu.Unlock()

	done := make(chan struct{})
	go func() {
		srv.sessWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Stragglers lose their connection; their in-flight engine calls
		// still finish (db.Close waits for them below).
		srv.logf("server: drain deadline expired, closing %d sessions", atomic.LoadUint64(&srv.counts.ConnectionsCurrent))
		srv.mu.Lock()
		for s := range srv.sessions {
			s.conn.Close()
		}
		srv.mu.Unlock()
		<-done
	}

	// Final checkpoint: restart cost after a clean shutdown is one catalog
	// read, not a log replay.
	var ckptErr error
	if _, err := srv.db.Checkpoint(); err != nil && !errors.Is(err, ipa.ErrClosed) {
		ckptErr = fmt.Errorf("server: final checkpoint: %w", err)
	}
	closeErr := srv.db.Close()
	if srv.httpSrv != nil {
		srv.httpSrv.Close()
	}
	srv.logf("server: shutdown complete")
	if ckptErr != nil {
		return ckptErr
	}
	return closeErr
}

// Close stops the server hard: listeners and connections close
// immediately, commands not yet executed are abandoned, and the engine is
// closed (which still flushes). Prefer Shutdown.
func (srv *Server) Close() error {
	srv.shut.Do(func() {
		srv.draining.Store(true)
		srv.ln.Close()
		srv.acceptWG.Wait()
		srv.mu.Lock()
		for s := range srv.sessions {
			s.conn.Close()
		}
		srv.mu.Unlock()
		srv.sessWG.Wait()
		if srv.httpSrv != nil {
			srv.httpSrv.Close()
		}
		srv.shutErr = srv.db.Close()
	})
	return srv.shutErr
}

// handleHealthz reports liveness: 200 while serving, 503 once draining.
func (srv *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if srv.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
