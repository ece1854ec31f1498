package ipaclient_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"testing"
	"time"

	"ipa"
	"ipa/internal/proto"
	"ipa/internal/server"
	"ipa/ipaclient"
)

// scripted dials a loopback listener whose one connection is served by
// peer, and returns the client. The peer's connection is closed when peer
// returns.
func scripted(t *testing.T, peer func(conn net.Conn)) *ipaclient.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		peer(conn)
	}()
	c, err := ipaclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		ln.Close()
		<-done
	})
	return c
}

// answer is a scripted server: PING, ECHO, a GET that knows every key but
// 404, and LIST, which answers with an array.
func answer(conn net.Conn) {
	r, w := proto.NewReader(conn), proto.NewWriter(conn)
	for {
		args, err := r.ReadCommand()
		if err != nil {
			return
		}
		switch string(args[0]) {
		case "PING":
			w.WriteSimple("PONG")
		case "ECHO":
			w.WriteBulk(args[1])
		case "GET":
			if string(args[2]) == "404" {
				w.WriteError("NOTFOUND", "ipa: key not found")
			} else {
				w.WriteBulk(append([]byte("row-"), args[2]...))
			}
		case "LIST":
			w.WriteArray(2)
			w.WriteInt(7)
			w.WriteNull()
		default:
			w.WriteError("UNKNOWN", "")
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func TestDoAndBatch(t *testing.T) {
	c := scripted(t, answer)

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if r, err := c.Do([]byte("ECHO"), []byte("a\r\nb\x00")); err != nil || string(r.Bulk) != "a\r\nb\x00" {
		t.Fatalf("Do ECHO: %+v %v", r, err)
	}
	if r, err := c.DoStrings("LIST"); err != nil || len(r.Elems) != 2 || r.Elems[0].Int != 7 || r.Elems[1].Kind != proto.KindNull {
		t.Fatalf("DoStrings LIST: %+v %v", r, err)
	}
	if row, err := c.Get("t", -12); err != nil || string(row) != "row--12" {
		t.Fatalf("Get: %q %v", row, err)
	}

	// An error reply is a *Error, and leaves the connection usable.
	_, err := c.Get("t", 404)
	var se *ipaclient.Error
	if !errors.As(err, &se) || se.Code != "NOTFOUND" || se.Message != "ipa: key not found" {
		t.Fatalf("Get of a missing key: %#v", err)
	}
	if !ipaclient.IsCode(err, "NOTFOUND") || ipaclient.IsCode(err, "CONFLICT") || ipaclient.IsCode(nil, "NOTFOUND") {
		t.Fatalf("IsCode misreads %v", err)
	}
	if _, err := c.DoStrings("FROB"); !ipaclient.IsCode(err, "UNKNOWN") || err.Error() != "ipaclient: UNKNOWN" {
		t.Fatalf("bare error code: %v", err)
	}

	// A batch with an error reply in the middle yields every reply, in order.
	var cmds [][][]byte
	for _, key := range []string{"1", "404", "3"} {
		cmds = append(cmds, [][]byte{[]byte("GET"), []byte("t"), []byte(key)})
	}
	replies, err := c.Batch(cmds)
	if err != nil || len(replies) != 3 {
		t.Fatalf("Batch: %d replies, %v", len(replies), err)
	}
	if string(replies[0].Bulk) != "row-1" || replies[1].ErrorCode() != "NOTFOUND" || string(replies[2].Bulk) != "row-3" {
		t.Fatalf("Batch replies: %+v", replies)
	}
	if replies, err := c.Batch(nil); err != nil || len(replies) != 0 {
		t.Fatalf("empty Batch: %+v %v", replies, err)
	}
}

// TestBatchBulksNeverOverlap: the bulk replies of one Batch share an
// arena, but each is capped at its own length, so appending to one leaves
// its neighbour as it was.
func TestBatchBulksNeverOverlap(t *testing.T) {
	c := scripted(t, answer)
	var cmds [][][]byte
	for key := 0; key < 64; key++ {
		cmds = append(cmds, [][]byte{[]byte("GET"), []byte("t"), []byte(strconv.Itoa(key))})
	}
	for round := 0; round < 2; round++ { // the second Batch starts with an arena of the right size
		replies, err := c.Batch(cmds)
		if err != nil || len(replies) != len(cmds) {
			t.Fatalf("Batch: %d replies, %v", len(replies), err)
		}
		for i := range replies {
			b := append(replies[i].Bulk, "-appended"...)
			b[0] = '!'
			if want := "row-" + strconv.Itoa(i); string(replies[i].Bulk) != want {
				t.Fatalf("round %d: reply %d = %q after an append to it, want %q", round, i, replies[i].Bulk, want)
			}
			if i+1 < len(replies) && string(replies[i+1].Bulk) != "row-"+strconv.Itoa(i+1) {
				t.Fatalf("round %d: appending to reply %d made reply %d %q", round, i, i+1, replies[i+1].Bulk)
			}
		}
	}
}

// TestTransportErrorIsSticky tears every kind of reply at every byte. The
// call that meets the torn reply fails with a transport error, and so does
// every call after it — with the same error, never by decoding whatever
// bytes come next.
func TestTransportErrorIsSticky(t *testing.T) {
	frames := []string{
		"+OK\r\n",
		"-NOTFOUND ipa: key not found\r\n",
		":12345\r\n",
		"$5\r\nhello\r\n",
		"*2\r\n:1\r\n$2\r\nab\r\n",
	}
	for _, frame := range frames {
		for cut := 0; cut < len(frame); cut++ {
			c := scripted(t, func(conn net.Conn) {
				if _, err := proto.NewReader(conn).ReadCommand(); err != nil {
					return
				}
				conn.Write([]byte(frame[:cut]))
			})
			_, first := c.DoStrings("PING")
			var se *ipaclient.Error
			if first == nil || errors.As(first, &se) {
				t.Fatalf("reply %q cut at %d: Do returned %v, want a transport error", frame, cut, first)
			}
			if _, err := c.DoStrings("PING"); err != first {
				t.Fatalf("reply %q cut at %d: Do after the failure returned %v, want the first error %v", frame, cut, err, first)
			}
			if replies, err := c.Batch([][][]byte{{[]byte("PING")}}); err != first || len(replies) != 0 {
				t.Fatalf("reply %q cut at %d: Batch after the failure returned %v %v", frame, cut, replies, err)
			}
			if _, err := c.Get("t", 1); err != first {
				t.Fatalf("reply %q cut at %d: Get after the failure returned %v", frame, cut, err)
			}
		}
	}

	// A batch cut short returns the replies that did arrive.
	c := scripted(t, func(conn net.Conn) {
		r := proto.NewReader(conn)
		for i := 0; i < 3; i++ {
			if _, err := r.ReadCommand(); err != nil {
				return
			}
		}
		conn.Write([]byte("+PONG\r\n+PONG\r\n+PO"))
	})
	ping := [][]byte{[]byte("PING")}
	replies, err := c.Batch([][][]byte{ping, ping, ping})
	if err == nil || len(replies) != 2 {
		t.Fatalf("torn batch: %d replies, %v", len(replies), err)
	}
	if err2 := c.Ping(); err2 != err {
		t.Fatalf("Ping after a torn batch: %v, want %v", err2, err)
	}
}

// startServer serves a fresh engine on loopback.
func startServer(t *testing.T) *ipaclient.Client {
	t.Helper()
	db, err := ipa.Open(ipa.Config{
		Blocks:          64,
		PagesPerBlock:   32,
		Chips:           2,
		BufferPoolPages: 64,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		WriteMode:       ipa.IPANativeFlash,
		FlashMode:       ipa.PSLC,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := ipaclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// batch runs c.Batch under a guard: a batch that has not returned after 20
// seconds has deadlocked against the server.
func batch(t *testing.T, c *ipaclient.Client, cmds [][][]byte) []proto.Reply {
	t.Helper()
	type result struct {
		replies []proto.Reply
		err     error
	}
	done := make(chan result, 1)
	go func() {
		replies, err := c.Batch(cmds)
		done <- result{replies, err}
	}()
	select {
	case res := <-done:
		if res.err != nil || len(res.replies) != len(cmds) {
			t.Fatalf("Batch of %d: %d replies, %v", len(cmds), len(res.replies), res.err)
		}
		return res.replies
	case <-time.After(20 * time.Second):
		t.Fatalf("Batch of %d commands has not returned after 20 s", len(cmds))
		return nil
	}
}

// TestBatchLargerThanTheSocketBuffers: a batch whose commands and replies
// both exceed what the sockets buffer used to deadlock — the server blocked
// writing replies nobody read, the client blocked writing commands nobody
// read. The window bounds what is unanswered, so it completes, in order.
func TestBatchLargerThanTheSocketBuffers(t *testing.T) {
	c := startServer(t)
	const rows = 64
	if err := c.CreateTable("big", 120); err != nil {
		t.Fatal(err)
	}
	gets := make([][][]byte, rows)
	for k := range gets {
		if err := c.Insert("big", int64(k), []byte(fmt.Sprintf("row-%03d", k))); err != nil {
			t.Fatal(err)
		}
		gets[k] = [][]byte{[]byte("GET"), []byte("big"), []byte(strconv.Itoa(k))}
	}
	// 400 000 never returned before the window (100 000 did). Under the race
	// detector that many take half the guard, so it gets the size that is
	// only a race check.
	n := 400000
	if raceDetector {
		n = 100000
	}
	cmds := make([][][]byte, n)
	for i := range cmds {
		cmds[i] = gets[i%rows]
	}
	for i, rep := range batch(t, c, cmds) {
		if want := fmt.Sprintf("row-%03d", i%rows); len(rep.Bulk) != 120 || string(rep.Bulk[:len(want)]) != want {
			t.Fatalf("reply %d of %d: %+v, want %s", i, n, rep, want)
		}
	}
}

// TestBatchWindowInsideTransaction: where a window ends is invisible — a
// transaction whose commands span several windows commits as one.
func TestBatchWindowInsideTransaction(t *testing.T) {
	c := startServer(t)
	if err := c.CreateTable("w", 1000); err != nil {
		t.Fatal(err)
	}
	const rows = 200 // × 1000-byte rows: three windows' worth between BEGIN and COMMIT
	cmds := [][][]byte{{[]byte("BEGIN")}}
	for k := 0; k < rows; k++ {
		row := bytes.Repeat([]byte{byte('a' + k%26)}, 1000)
		cmds = append(cmds, [][]byte{[]byte("INSERT"), []byte("w"), []byte(strconv.Itoa(k)), row})
	}
	cmds = append(cmds, [][]byte{[]byte("COMMIT")}, [][]byte{[]byte("COUNT"), []byte("w")})
	replies := batch(t, c, cmds)
	for i, rep := range replies[:rows+2] {
		if rep.Kind != proto.KindSimple || rep.Str != "OK" {
			t.Fatalf("reply %d: %+v", i, rep)
		}
	}
	if got := replies[rows+2]; got.Int != rows {
		t.Fatalf("COUNT after COMMIT: %+v, want %d", got, rows)
	}
	row, err := c.Get("w", 27)
	if err != nil || !bytes.Equal(row, bytes.Repeat([]byte{'b'}, 1000)) {
		t.Fatalf("row 27 after the batch: %.20q… %v", row, err)
	}
}
