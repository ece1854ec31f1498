package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"testing"

	"ipa"
	"ipa/internal/proto"
	"ipa/ipaclient"
)

// countingConn is the server side of a connection, counting what the
// session does to its socket.
type countingConn struct {
	net.Conn
	reads     atomic.Int64 // Read calls that returned data
	bytesRead atomic.Int64
	writes    atomic.Int64 // Write calls
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
		c.bytesRead.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countedSession opens a loopback TCP connection, hands its server side to
// srv as a session behind a countingConn, and returns the client side.
func countedSession(t *testing.T, srv *Server) (net.Conn, *countingConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	sc := &countingConn{Conn: accepted}
	srv.startSession(sc)
	return client, sc
}

// TestFlushRule pins when a session writes to its socket: exactly when the
// decoder has to go back to it for input. A batch that arrived in one read
// is answered by one write, a conversation at depth 1 by one write per
// command, and a pipeline larger than the read buffer by no more writes
// than it took reads.
func TestFlushRule(t *testing.T) {
	srv, _ := newTestServer(t)
	conn, sc := countedSession(t, srv)
	r := proto.NewReader(conn)
	pong := func(what string) {
		t.Helper()
		if rep, err := r.ReadReply(); err != nil || rep.Str != "PONG" {
			t.Fatalf("%s: %+v %v", what, rep, err)
		}
	}

	// 100 commands in one segment: one read, one write.
	if _, err := conn.Write(bytes.Repeat([]byte("*1\r\n$4\r\nPING\r\n"), 100)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		pong("pipelined PING")
	}
	if reads, writes := sc.reads.Load(), sc.writes.Load(); reads != 1 || writes != 1 {
		t.Fatalf("a 100-command pipeline sent in one write took %d reads and %d writes, want 1 and 1", reads, writes)
	}

	// 100 round trips: a write each.
	for i := 0; i < 100; i++ {
		if _, err := conn.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
			t.Fatal(err)
		}
		pong("depth-1 PING")
	}
	if writes := sc.writes.Load(); writes != 101 {
		t.Fatalf("100 round trips took %d writes, want 100", writes-1)
	}

	// 5 000 commands, ≈1.2 MB: INSERTs of 400-byte rows alternating with
	// COUNTs, whose replies number the INSERTs — every command ran, in
	// order — and are small enough that no write is the buffer overflowing.
	do(t, dial(t, srv), "CREATE", "f", "400")
	var pipeline bytes.Buffer
	w := proto.NewWriter(&pipeline)
	row := bytes.Repeat([]byte{'r'}, 400)
	for i := 0; i < 2500; i++ {
		w.WriteCommand([]byte("INSERT"), []byte("f"), []byte(fmt.Sprint(i)), row)
		w.WriteCommand([]byte("COUNT"), []byte("f"))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	reads, writes := sc.reads.Load(), sc.writes.Load()
	if _, err := conn.Write(pipeline.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2500; i++ {
		if rep, err := r.ReadReply(); err != nil || rep.Str != "OK" {
			t.Fatalf("INSERT %d: %+v %v", i, rep, err)
		}
		if rep, err := r.ReadReply(); err != nil || rep.Kind != proto.KindInt || rep.Int != int64(i+1) {
			t.Fatalf("COUNT after INSERT %d: %+v %v", i, rep, err)
		}
	}
	reads, writes = sc.reads.Load()-reads, sc.writes.Load()-writes
	t.Logf("%d-byte pipeline: %d reads, %d writes", pipeline.Len(), reads, writes)
	if reads < 2 || writes > reads+1 {
		t.Fatalf("a %d-byte pipeline took %d reads and %d writes, want writes ≤ reads+1", pipeline.Len(), reads, writes)
	}
}

// TestPipelinedWritesSurviveArgumentPoisoning sends one pipelined write
// through every kind of handler that could keep an argument — names,
// tuples, patches, an explicit transaction's undo and log images — on a
// session that overwrites each frame's arguments the moment it has
// executed, and checks the replies and, after a crash and recovery, the
// stored bytes.
func TestPipelinedWritesSurviveArgumentPoisoning(t *testing.T) {
	srv, db := newTestServer(t)
	c := dial(t, srv)

	row := make([]byte, 32)
	binary.LittleEndian.PutUint64(row, 7) // the indexed field
	copy(row[8:], "inserted-over-the-wire!!")
	cmd := func(args ...string) [][]byte {
		out := make([][]byte, len(args))
		for i, a := range args {
			out[i] = []byte(a)
		}
		return out
	}
	replies, err := c.Batch([][][]byte{
		cmd("CREATE", "poison", "32"),
		cmd("CINDEX", "poison", "byfield", "0"),
		cmd("BEGIN"),
		{[]byte("INSERT"), []byte("poison"), []byte("1"), row},
		cmd("UPDATE", "poison", "1", "8", "UPDATED-"),
		cmd("UPDATE", "poison", "1", "24", "tail-end"),
		cmd("COMMIT"),
		cmd("GET", "poison", "1"),
		cmd("SCANBY", "poison", "byfield", "7", "8"),
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	want := append([]byte(nil), row...)
	copy(want[8:], "UPDATED-")
	copy(want[24:], "tail-end")
	for i, rep := range replies[:7] {
		if rep.Kind != proto.KindSimple || rep.Str != "OK" {
			t.Fatalf("reply %d: %+v", i, rep)
		}
	}
	if got := replies[7]; !bytes.Equal(got.Bulk, want) {
		t.Fatalf("GET: %q, want %q", got.Bulk, want)
	}
	if got := replies[8]; len(got.Elems) != 2 || got.Elems[0].Int != 7 || !bytes.Equal(got.Elems[1].Bulk, want) {
		t.Fatalf("SCANBY: %+v", got)
	}

	db2, err := ipa.Reopen(db.Crash())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	table, ok := db2.Table("poison")
	if !ok {
		t.Fatal("table missing after recovery")
	}
	if got, err := table.Get(1); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("row after recovery: %q %v, want %q", got, err, want)
	}
	if rows, err := table.GetBySecondary("byfield", 7); err != nil || len(rows) != 1 || !bytes.Equal(rows[0], want) {
		t.Fatalf("index lookup after recovery: %q %v", rows, err)
	}
}

// residentServer serves the benchmark's mem_rw table — 8 KiB pages, a
// 128-page pool, 3 776 rows of 120 bytes, [2×4] on native Flash — so every
// page a command touches is cached and what is measured is the wire path
// on top of the engine's resident fast path.
func residentServer(tb testing.TB) (*Server, *ipaclient.Client) {
	tb.Helper()
	db, err := ipa.Open(ipa.Config{
		PageSize:        8 * 1024,
		Blocks:          128,
		PagesPerBlock:   64,
		Chips:           1,
		FlashMode:       ipa.PSLC,
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		BufferPoolPages: 128,
	})
	if err != nil {
		tb.Fatal(err)
	}
	table, err := db.CreateTable("t", residentTupleSize)
	if err != nil {
		tb.Fatal(err)
	}
	row := make([]byte, residentTupleSize)
	for k := int64(0); k < residentRows; {
		tx := db.Begin()
		for n := 0; n < 64 && k < residentRows; n, k = n+1, k+1 {
			if err := tx.Insert(table, k, row); err != nil {
				tb.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	srv := New(db, Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	c, err := ipaclient.Dial(srv.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return srv, c
}

const (
	residentRows      = 3776
	residentTupleSize = 120
)

// residentOps builds the commands of the resident mix in reused storage: a
// GET, or an 8-byte UPDATE of a row's last field, over keys that stride the
// table.
type residentOps struct {
	key   []byte
	patch [8]byte
	getc  [][]byte
	updc  [][]byte
}

func newResidentOps() *residentOps {
	o := &residentOps{}
	o.getc = [][]byte{[]byte("GET"), []byte("t"), nil}
	o.updc = [][]byte{[]byte("UPDATE"), []byte("t"), nil, []byte("112"), o.patch[:]}
	return o
}

func (o *residentOps) get(i int) [][]byte {
	o.key = strconv.AppendInt(o.key[:0], int64(i*31%residentRows), 10)
	o.getc[2] = o.key
	return o.getc
}

func (o *residentOps) update(i int) [][]byte {
	o.key = strconv.AppendInt(o.key[:0], int64(i*31%residentRows), 10)
	binary.LittleEndian.PutUint64(o.patch[:], uint64(i))
	o.updc[2] = o.key
	return o.updc
}

// op is operation i of the mix: GETs and UPDATEs alternate.
func (o *residentOps) op(i int) [][]byte {
	if i%2 == 0 {
		return o.get(i)
	}
	return o.update(i)
}

// TestWireAllocations pins the whole process — client, codec, session,
// engine — over loopback: a PING allocates nothing, a GET the client's
// Bulk (the session reads the tuple into its own scratch), an UPDATE the
// engine's two, and a Batch of 32 GETs the reply slice and the one
// arena their Bulks are carved from.
func TestWireAllocations(t *testing.T) {
	_, c := residentServer(t)
	ops := newResidentOps()
	ping := [][]byte{[]byte("PING")}
	i := 0
	do := func(args [][]byte) {
		i++
		if _, err := c.Do(args...); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past every structure's growth (see fastpath_test.go).
	for n := 0; n < 2*residentRows; n++ {
		do(ops.update(i))
	}
	if _, err := c.DoStrings("CHECKPOINT"); err != nil {
		t.Fatal(err)
	}
	gets := make([]*residentOps, 32)
	for j := range gets {
		gets[j] = newResidentOps()
	}
	batch := make([][][]byte, len(gets))
	pipelined := func() {
		for j := range batch {
			i++
			batch[j] = gets[j].get(i)
		}
		replies, err := c.Batch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range replies {
			if len(rep.Bulk) != residentTupleSize {
				t.Fatalf("GET in a batch: %+v", rep)
			}
		}
	}
	for _, tc := range []struct {
		name string
		f    func()
		max  float64
	}{
		{"PING", func() { do(ping) }, 0},
		{"GET", func() { do(ops.get(i)) }, 1},
		{"UPDATE", func() { do(ops.update(i)) }, 2},
		{"Batch of 32 GETs", pipelined, 2},
	} {
		tc.f()
		allocs := testing.AllocsPerRun(2000, tc.f)
		t.Logf("%s: %.0f allocations per round trip", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("a %s round trip allocates %.0f times in the whole process, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}

// BenchmarkWireRoundTrip is one command per round trip over loopback TCP on
// the resident table, half GETs and half UPDATEs: the isolating benchmark
// of the session loop and the two socket crossings around it.
func BenchmarkWireRoundTrip(b *testing.B) {
	_, c := residentServer(b)
	ops := newResidentOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(ops.op(i)...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWirePipelined32 sends the same mix 32 commands per round trip:
// codec and session throughput with the socket cost amortised. One
// iteration is one command.
func BenchmarkWirePipelined32(b *testing.B) {
	_, c := residentServer(b)
	const depth = 32
	ops := make([]*residentOps, depth)
	for i := range ops {
		ops[i] = newResidentOps()
	}
	batch := make([][][]byte, depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		for j := range batch {
			batch[j] = ops[j].op(i + j)
		}
		replies, err := c.Batch(batch)
		if err != nil {
			b.Fatal(err)
		}
		for j, rep := range replies {
			if rep.Kind == proto.KindError {
				b.Fatalf("command %d: %s", i+j, rep.Str)
			}
		}
	}
}
