package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa"
	"ipa/internal/proto"
	"ipa/ipaclient"
)

// newTestServer starts a server on loopback ports over a small simulated
// device and returns it with its engine. Its sessions poison every
// command's arguments once the command has executed, so the whole suite
// doubles as the check that no handler — and nothing below it: Tx, undo
// record, WAL image, version chain — keeps an alias of the read buffer.
func newTestServer(t *testing.T) (*Server, *ipa.DB) {
	t.Helper()
	return newTestServerPool(t, 64)
}

// newTestServerPool is newTestServer with a buffer pool of poolPages frames.
func newTestServerPool(t *testing.T, poolPages int) (*Server, *ipa.DB) {
	t.Helper()
	return newTestServerOn(t, 64, poolPages)
}

// newTestServerOn is newTestServer on a device of blocks blocks per chip
// with a buffer pool of poolPages frames.
func newTestServerOn(t *testing.T, blocks, poolPages int) (*Server, *ipa.DB) {
	t.Helper()
	db, err := ipa.Open(ipa.Config{
		Blocks:          blocks,
		PagesPerBlock:   32,
		Chips:           2,
		BufferPoolPages: poolPages,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		WriteMode:       ipa.IPANativeFlash,
		FlashMode:       ipa.PSLC,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := New(db, Config{Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", Logf: t.Logf})
	srv.poisonArgs = true
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, db
}

func dial(t *testing.T, srv *Server) *ipaclient.Client {
	t.Helper()
	c, err := ipaclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// do runs a command that must succeed.
func do(t *testing.T, c *ipaclient.Client, args ...string) proto.Reply {
	t.Helper()
	r, err := c.DoStrings(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return r
}

// doErr runs a command that must fail with the given wire code.
func doErr(t *testing.T, c *ipaclient.Client, code string, args ...string) {
	t.Helper()
	_, err := c.DoStrings(args...)
	if !ipaclient.IsCode(err, code) {
		t.Fatalf("%v: got %v, want wire code %s", args, err, code)
	}
}

// TestCommandMatrix exercises every command and every reachable error
// code over a real connection.
func TestCommandMatrix(t *testing.T) {
	srv, _ := newTestServer(t)
	c := dial(t, srv)

	if r := do(t, c, "PING"); r.Str != "PONG" {
		t.Fatalf("PING: %+v", r)
	}
	if r := do(t, c, "ECHO", "hello"); string(r.Bulk) != "hello" {
		t.Fatalf("ECHO: %+v", r)
	}

	// Tables and rows.
	do(t, c, "CREATE", "acc", "64")
	doErr(t, c, "EXISTS", "CREATE", "acc", "64")
	if r := do(t, c, "TABLES"); len(r.Elems) != 1 || string(r.Elems[0].Bulk) != "acc" {
		t.Fatalf("TABLES: %+v", r)
	}
	do(t, c, "INSERT", "acc", "1", "alice")
	doErr(t, c, "DUPKEY", "INSERT", "acc", "1", "alice")
	do(t, c, "INSERT", "acc", "2", "bob")
	if r := do(t, c, "COUNT", "acc"); r.Int != 2 {
		t.Fatalf("COUNT: %+v", r)
	}
	r := do(t, c, "GET", "acc", "1")
	if len(r.Bulk) != 64 || !strings.HasPrefix(string(r.Bulk), "alice") {
		t.Fatalf("GET: %d bytes %q", len(r.Bulk), r.Bulk)
	}
	doErr(t, c, "NOTFOUND", "GET", "acc", "99")
	doErr(t, c, "NOTABLE", "GET", "nosuch", "1")

	// A tail patch at offset 56 — the in-place-append path end to end.
	do(t, c, "UPDATE", "acc", "1", "56", "PATCHED!")
	r = do(t, c, "GET", "acc", "1")
	if got := string(r.Bulk[56:]); got != "PATCHED!" {
		t.Fatalf("UPDATE patch: %q", got)
	}

	do(t, c, "DEL", "acc", "2")
	doErr(t, c, "NOTFOUND", "GET", "acc", "2")

	// Range read: keys 10..19, scan a sub-range with a limit.
	for k := 10; k < 20; k++ {
		do(t, c, "INSERT", "acc", fmt.Sprint(k), fmt.Sprintf("row-%d", k))
	}
	r = do(t, c, "SCAN", "acc", "10", "15") // half-open: keys 10..14
	if len(r.Elems) != 10 {                 // 5 keys × (key, tuple)
		t.Fatalf("SCAN: %d elements", len(r.Elems))
	}
	if r.Elems[0].Int != 10 || !strings.HasPrefix(string(r.Elems[1].Bulk), "row-10") {
		t.Fatalf("SCAN first row: %+v %q", r.Elems[0], r.Elems[1].Bulk)
	}
	r = do(t, c, "SCAN", "acc", "10", "19", "3")
	if len(r.Elems) != 6 {
		t.Fatalf("SCAN limit: %d elements", len(r.Elems))
	}

	// Secondary index over an int64 field at offset 0 of the tuple.
	do(t, c, "CREATE", "evt", "16")
	ser := func(v int64) string {
		b := make([]byte, 16)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i)) // little-endian, as Int64Field reads
		}
		return string(b)
	}
	for k := int64(0); k < 8; k++ {
		do(t, c, "INSERT", "evt", fmt.Sprint(k), ser(k%4))
	}
	do(t, c, "CINDEX", "evt", "byval", "0")
	doErr(t, c, "EXISTS", "CINDEX", "evt", "byval", "0")
	if r := do(t, c, "INDEXES", "evt"); len(r.Elems) != 1 || string(r.Elems[0].Bulk) != "byval" {
		t.Fatalf("INDEXES: %+v", r)
	}
	if r := do(t, c, "GETBY", "evt", "byval", "2"); len(r.Elems) != 2 {
		t.Fatalf("GETBY: %d rows", len(r.Elems))
	}
	doErr(t, c, "NOINDEX", "GETBY", "evt", "nosuch", "2")
	if r := do(t, c, "SCANBY", "evt", "byval", "1", "3"); len(r.Elems) != 8 { // values 1,2 × 2 rows × (key, tuple)
		t.Fatalf("SCANBY: %d elements", len(r.Elems))
	}

	// Transaction session: commit is visible, abort is not.
	do(t, c, "BEGIN")
	doErr(t, c, "INTXN", "BEGIN")
	do(t, c, "INSERT", "acc", "100", "committed")
	do(t, c, "COMMIT")
	doErr(t, c, "NOTXN", "COMMIT")
	r = do(t, c, "GET", "acc", "100")
	if !strings.HasPrefix(string(r.Bulk), "committed") {
		t.Fatalf("committed row: %q", r.Bulk)
	}
	do(t, c, "BEGIN")
	do(t, c, "INSERT", "acc", "101", "aborted")
	do(t, c, "ABORT")
	doErr(t, c, "NOTXN", "ABORT")
	doErr(t, c, "NOTFOUND", "GET", "acc", "101")

	// Argument and dispatch errors.
	doErr(t, c, "UNKNOWN", "FROB")
	doErr(t, c, "ARGS", "GET", "acc")
	doErr(t, c, "ARGS", "GET", "acc", "notanumber")
	doErr(t, c, "ARGS", "INSERT", "acc", "1", strings.Repeat("x", 65))
	doErr(t, c, "ARGS", "SCAN", "acc", "0", "10", "-1")
	doErr(t, c, "ARGS", "CINDEX", "acc", "late", "60") // offset+8 > 64

	// Admin.
	var ck map[string]any
	if err := json.Unmarshal(do(t, c, "CHECKPOINT").Bulk, &ck); err != nil {
		t.Fatalf("CHECKPOINT json: %v", err)
	}
	if !strings.Contains(string(do(t, c, "STATS").Bulk), " CommittedTxns=") {
		t.Fatalf("STATS text missing counters")
	}
	var st map[string]any
	if err := json.Unmarshal(do(t, c, "STATS", "JSON").Bulk, &st); err != nil {
		t.Fatalf("STATS JSON: %v", err)
	}
	info := string(do(t, c, "INFO").Bulk)
	if !strings.Contains(info, "commands:") || !strings.Contains(info, "connections_current:1") {
		t.Fatalf("INFO: %q", info)
	}
}

// TestGetForUpdateLocksOnTheWire pins GETFU's contract: it needs an open
// transaction, it returns the tuple, and it holds the record lock until
// COMMIT — a concurrent writer is refused with CONFLICT while the lock
// is held and succeeds after it is released.
func TestGetForUpdateLocksOnTheWire(t *testing.T) {
	srv, _ := newTestServer(t)
	c1 := dial(t, srv)
	c2 := dial(t, srv)

	do(t, c1, "CREATE", "bal", "16")
	do(t, c1, "INSERT", "bal", "7", "money-is-here!!!")

	doErr(t, c1, "NOTXN", "GETFU", "bal", "7") // lock needs a transaction

	do(t, c1, "BEGIN")
	r := do(t, c1, "GETFU", "bal", "7")
	if string(r.Bulk) != "money-is-here!!!" {
		t.Fatalf("GETFU tuple: %q", r.Bulk)
	}
	doErr(t, c1, "NOTFOUND", "GETFU", "bal", "99")

	// The locked tuple is untouchable from another connection (the lock
	// manager is no-wait: conflicts are refused, not queued)...
	doErr(t, c2, "CONFLICT", "UPDATE", "bal", "7", "0", "steal")
	do(t, c1, "UPDATE", "bal", "7", "0", "mine!")
	do(t, c1, "COMMIT")

	// ...and is free again once the transaction commits.
	do(t, c2, "UPDATE", "bal", "7", "0", "yours")
	r = do(t, c2, "GET", "bal", "7")
	if !strings.HasPrefix(string(r.Bulk), "yours") {
		t.Fatalf("post-release tuple: %q", r.Bulk)
	}
}

// TestAutocommitIsDurableOnTheWire verifies that a plain INSERT (no BEGIN)
// commits a transaction — every wire write goes through the WAL — so what
// the server answered OK for survives a power cut that saves nothing
// volatile.
func TestAutocommitIsDurableOnTheWire(t *testing.T) {
	srv, db := newTestServer(t)
	c := dial(t, srv)
	before := db.Stats().CommittedTxns
	do(t, c, "CREATE", "d", "32")
	do(t, c, "INSERT", "d", "1", "x")
	do(t, c, "INSERT", "d", "2", "z")
	do(t, c, "UPDATE", "d", "1", "0", "y")
	do(t, c, "DEL", "d", "2")
	if got := db.Stats().CommittedTxns - before; got != 4 {
		t.Fatalf("autocommit transactions: got %d, want 4", got)
	}

	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer db2.Close()
	tbl, ok := db2.Table("d")
	if !ok {
		t.Fatalf("table lost across the crash")
	}
	row, err := tbl.Get(1)
	if err != nil {
		t.Fatalf("autocommitted row lost across the crash: %v", err)
	}
	if got := strings.TrimRight(string(row), "\x00"); got != "y" {
		t.Fatalf("row 1 = %q, want the autocommitted update %q", got, "y")
	}
	if _, err := tbl.Get(2); !errors.Is(err, ipa.ErrKeyNotFound) {
		t.Fatalf("row 2 after the autocommitted delete: %v, want ErrKeyNotFound", err)
	}
}

// TestConcurrentPipelinedConnections drives 64 connections, each
// pipelining batches against its own key range. Run under -race this is
// the acceptance gate for the session/worker-pool architecture.
func TestConcurrentPipelinedConnections(t *testing.T) {
	srv, _ := newTestServer(t)
	admin := dial(t, srv)
	do(t, admin, "CREATE", "load", "64")

	const (
		conns   = 64
		perConn = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := ipaclient.Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			cmds := make([][][]byte, 0, perConn)
			for j := 0; j < perConn; j++ {
				key := fmt.Sprint(i*perConn + j)
				cmds = append(cmds, [][]byte{[]byte("INSERT"), []byte("load"), []byte(key), []byte("v" + key)})
			}
			replies, err := c.Batch(cmds)
			if err != nil {
				errs <- fmt.Errorf("conn %d: %w", i, err)
				return
			}
			for _, r := range replies {
				if r.Kind == proto.KindError {
					errs <- fmt.Errorf("conn %d: %s", i, r.Str)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r := do(t, admin, "COUNT", "load"); r.Int != conns*perConn {
		t.Fatalf("COUNT after load: %d, want %d", r.Int, conns*perConn)
	}
}

// TestInlineCommands speaks the telnet dialect: bare lines, no RESP
// arrays.
func TestInlineCommands(t *testing.T) {
	srv, _ := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("PING\r\n\r\nECHO hi\r\n")); err != nil {
		t.Fatal(err)
	}
	r := proto.NewReader(conn)
	if rep, err := r.ReadReply(); err != nil || rep.Str != "PONG" {
		t.Fatalf("inline PING: %+v %v", rep, err)
	}
	if rep, err := r.ReadReply(); err != nil || string(rep.Bulk) != "hi" {
		t.Fatalf("inline ECHO: %+v %v", rep, err)
	}
}

// TestMalformedFrameClosesWithProtoError sends an unframeable request and
// expects one final -PROTO reply followed by EOF — not a silent drop.
func TestMalformedFrameClosesWithProtoError(t *testing.T) {
	srv, _ := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Element 0 of the array is not a bulk string: unrecoverable framing.
	if _, err := conn.Write([]byte("*1\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	r := proto.NewReader(conn)
	rep, err := r.ReadReply()
	if err != nil || rep.ErrorCode() != "PROTO" {
		t.Fatalf("want -PROTO reply, got %+v %v", rep, err)
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("want EOF after -PROTO, got %v", err)
	}
}

// TestQuit closes the connection after +OK.
func TestQuit(t *testing.T) {
	srv, _ := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("QUIT\r\n")); err != nil {
		t.Fatal(err)
	}
	r := proto.NewReader(conn)
	if rep, err := r.ReadReply(); err != nil || rep.Str != "OK" {
		t.Fatalf("QUIT: %+v %v", rep, err)
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("want EOF after QUIT, got %v", err)
	}
}

// TestHealthzAndMetrics exercises the HTTP sidecar.
func TestHealthzAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t)
	base := "http://" + srv.HTTPAddr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// While draining the same endpoint must answer 503.
	srv.draining.Store(true)
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz draining: %d", resp.StatusCode)
	}
	srv.draining.Store(false)

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"ipa_committed_txns_total", "ipa_wal_bytes_total",
		"ipa_server_connections_current", "ipa_server_commands_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %s:\n%s", want, body)
		}
	}
}

// TestLanesNeverAdmitMoreThanTheirLimit has K goroutines take a lane M
// times each at limit L: no more than L are ever inside at once, every
// acquisition gets in (none is lost on a hand-off), and all of them finish.
func TestLanesNeverAdmitMoreThanTheirLimit(t *testing.T) {
	const k, m = 16, 2000
	for _, limit := range []int{1, 3, 8} {
		l := lanes{wake: make(chan struct{}, limit)}
		var inside, most, entered atomic.Int64
		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < k; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < m; j++ {
					l.acquire()
					n := inside.Add(1)
					for old := most.Load(); n > old && !most.CompareAndSwap(old, n); old = most.Load() {
					}
					entered.Add(1)
					if j%64 == 0 {
						runtime.Gosched() // hold the lane across a reschedule now and then
					}
					inside.Add(-1)
					l.release()
				}
			}()
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("limit %d: %d of %d acquisitions got in before the deadline", limit, entered.Load(), k*m)
		}
		if most.Load() > int64(limit) || entered.Load() != k*m || l.n.Load() != 0 {
			t.Fatalf("limit %d: %d inside at once, %d of %d acquisitions, count left at %d",
				limit, most.Load(), entered.Load(), k*m, l.n.Load())
		}
	}
}

// TestWorkerPoolDefault pins the chips × GOMAXPROCS sizing rule.
func TestWorkerPoolDefault(t *testing.T) {
	srv, db := newTestServer(t)
	want := db.Config().Chips
	if srv.cfg.Workers%want != 0 || srv.cfg.Workers < want {
		t.Fatalf("workers=%d, want a positive multiple of chips=%d", srv.cfg.Workers, want)
	}
	// Give the pool a workout far wider than its lane count.
	c := dial(t, srv)
	do(t, c, "CREATE", "w", "16")
	var wg sync.WaitGroup
	for i := 0; i < 4*srv.cfg.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cc, err := ipaclient.Dial(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cc.Close()
			if err := cc.Insert("w", int64(i), []byte("x")); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestDisconnectAbortsOpenTransaction drops a connection mid-transaction
// and verifies its locks die with it.
func TestDisconnectAbortsOpenTransaction(t *testing.T) {
	srv, db := newTestServer(t)
	c := dial(t, srv)
	do(t, c, "CREATE", "tx", "32")
	do(t, c, "INSERT", "tx", "1", "row")

	other := dial(t, srv)
	do(t, other, "BEGIN")
	do(t, other, "UPDATE", "tx", "1", "0", "lock") // write lock under the open txn
	other.Close()

	// Once the server reaps the session the abort must have freed the lock.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Update("tx", 1, 0, []byte("mine")); err == nil {
			break
		} else if !ipaclient.IsCode(err, "CONFLICT") {
			t.Fatalf("unexpected error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("lock never released after disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if db.Stats().AbortedTxns == 0 {
		t.Fatal("disconnect did not abort the open transaction")
	}
}

// TestUpdateThenGetOnOneConnection is the session guarantee a RESP client
// assumes: a command sees the effects of the commands the same connection
// completed before it. Snapshots read the oracle's contiguous watermark, so
// with other connections committing, an UPDATE's commit used to return
// while an earlier timestamp was still in flight and the GET behind it read
// the old value. Writers on other connections keep timestamps in flight.
func TestUpdateThenGetOnOneConnection(t *testing.T) {
	srv, _ := newTestServer(t)
	admin := dial(t, srv)
	do(t, admin, "CREATE", "ryw", "16")
	const writers = 4
	for k := 0; k <= writers; k++ {
		do(t, admin, "INSERT", "ryw", fmt.Sprint(k), "00000000")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := ipaclient.Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.DoStrings("UPDATE", "ryw", fmt.Sprint(w), "0", fmt.Sprintf("%08d", i)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	c := dial(t, srv)
	for i := 1; i <= 2000; i++ {
		val := fmt.Sprintf("%08d", i)
		do(t, c, "UPDATE", "ryw", "0", "0", val)
		if r := do(t, c, "GET", "ryw", "0"); string(r.Bulk[:8]) != val {
			close(stop)
			wg.Wait()
			t.Fatalf("GET after UPDATE %s on the same connection returned %s", val, r.Bulk[:8])
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestVerbsAreCaseInsensitive: the dispatch probes the table with the verb
// as sent and folds case only on a miss; both spellings must land on the
// same command and the same latency series.
func TestVerbsAreCaseInsensitive(t *testing.T) {
	srv, _ := newTestServer(t)
	c := dial(t, srv)
	for _, verb := range []string{"PING", "ping", "Ping"} {
		if r := do(t, c, verb); r.Str != "PONG" {
			t.Fatalf("%s: %+v", verb, r)
		}
	}
	doErr(t, c, "UNKNOWN", "nosuch")
	if _, err := c.DoStrings("nosuch"); err == nil || !strings.Contains(err.Error(), `"NOSUCH"`) {
		t.Fatalf("unknown verb reported as %v, want it upper-cased as before", err)
	}
}

// TestAllFramesPinnedIsBusyOnTheWire: buffer.ErrNoFrames — more page
// operations in flight than the pool has frames — is a condition a client
// should retry, so it has its own code and is not the catch-all ERR.
// The pool here is one frame; a secondary index's backfill
// reads a heap page while it holds an index page, so the only frame is
// pinned when the second is asked for, and stays pinned for the whole retry
// budget. The session and the engine carry on afterwards.
func TestAllFramesPinnedIsBusyOnTheWire(t *testing.T) {
	srv, _ := newTestServerPool(t, 1)
	c := dial(t, srv)
	do(t, c, "CREATE", "t", "16")
	for k := 0; k < 8; k++ {
		do(t, c, "INSERT", "t", fmt.Sprint(k), "0123456789abcdef")
	}
	doErr(t, c, "BUSY", "CINDEX", "t", "by8", "8")
	if r := do(t, c, "GET", "t", "3"); string(r.Bulk) != "0123456789abcdef" {
		t.Fatalf("GET after BUSY: %q", r.Bulk)
	}
}

// TestFullDeviceIsFullOnTheWire: a device with no room left is a condition
// a client can act on, so it has its own code and is not the catch-all ERR.
// Over a device of eight blocks a chip, the first insert that does not fit
// answers FULL, and the session, the rows already in and PING carry on.
func TestFullDeviceIsFullOnTheWire(t *testing.T) {
	srv, _ := newTestServerOn(t, 8, 16)
	c := dial(t, srv)
	do(t, c, "CREATE", "t", "512")
	k := 0
	for ; k < 10000; k++ {
		if _, err := c.DoStrings("INSERT", "t", fmt.Sprint(k), "row"); err != nil {
			if !ipaclient.IsCode(err, "FULL") {
				t.Fatalf("insert %d: %v, want wire code FULL", k, err)
			}
			break
		}
	}
	if k == 0 || k == 10000 {
		t.Fatalf("%d inserts before the device filled", k)
	}
	if r := do(t, c, "PING"); r.Str != "PONG" {
		t.Fatalf("PING after FULL: %+v", r)
	}
	if r := do(t, c, "GET", "t", "0"); !strings.HasPrefix(string(r.Bulk), "row") {
		t.Fatalf("GET after FULL: %q", r.Bulk)
	}
	t.Logf("FULL after %d inserts", k)
}
