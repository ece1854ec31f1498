package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"ipa/internal/proto"
)

// TestShutdownWhilePipelining pins the drain contract: a client that has
// a pipeline in flight when Shutdown is called gets every command the
// session had already read off the socket answered and flushed before the
// connection closes — nothing is dropped, nothing is cut mid-reply — and a
// frame that was only half there is dropped without an error reply.
func TestShutdownWhilePipelining(t *testing.T) {
	srv, _ := newTestServer(t)
	admin := dial(t, srv)
	do(t, admin, "CREATE", "d", "32")
	admin.Close()

	conn, sc := countedSession(t, srv)

	// A 100-command pipeline and the first half of a 101st frame.
	const k = 100
	var sent bytes.Buffer
	w := proto.NewWriter(&sent)
	for i := 0; i < k; i++ {
		w.WriteCommand([]byte("INSERT"), []byte("d"), []byte(fmt.Sprint(i)), []byte("v"))
	}
	w.WriteCommand([]byte("INSERT"), []byte("d"), []byte("100"), []byte("torn"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sent.Truncate(sent.Len() - 9)
	if _, err := conn.Write(sent.Bytes()); err != nil {
		t.Fatal(err)
	}

	// The drain contract covers what the session has read, so wait until
	// it has read everything sent.
	deadline := time.Now().Add(5 * time.Second)
	for sc.bytesRead.Load() < int64(sent.Len()) {
		if time.Now().After(deadline) {
			t.Fatal("session never read the pipeline")
		}
		time.Sleep(time.Millisecond)
	}

	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutErr <- srv.Shutdown(ctx)
	}()

	// Every whole command answers, in order, then EOF.
	r := proto.NewReader(conn)
	for i := 0; i < k; i++ {
		rep, err := r.ReadReply()
		if err != nil {
			t.Fatalf("reply %d/%d: %v", i, k, err)
		}
		if rep.Kind != proto.KindSimple {
			t.Fatalf("reply %d: %+v", i, rep)
		}
	}
	if rep, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("after drain: want EOF, got %+v %v", rep, err)
	}
	if err := <-shutErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownRejectsNewConnections verifies the listener is gone after
// Shutdown returns.
func TestShutdownRejectsNewConnections(t *testing.T) {
	srv, _ := newTestServer(t)
	addr := srv.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("dial succeeded after Shutdown")
	}
}

// TestShutdownIsIdempotent: repeated Shutdown/Close calls share one
// result.
func TestShutdownIsIdempotent(t *testing.T) {
	srv, _ := newTestServer(t)
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
}

// TestEngineClosedMapsToClosedCode pins the wire behaviour when the
// engine is closed underneath live sessions (an embedder calling
// db.Close, or a command racing past the drain): commands that need the
// engine answer -CLOSED, the connection itself stays up and framed.
func TestEngineClosedMapsToClosedCode(t *testing.T) {
	srv, db := newTestServer(t)
	c := dial(t, srv)
	do(t, c, "CREATE", "t", "32")
	do(t, c, "INSERT", "t", "1", "row")

	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	doErr(t, c, "CLOSED", "GET", "t", "1")
	doErr(t, c, "CLOSED", "INSERT", "t", "2", "x")
	doErr(t, c, "CLOSED", "UPDATE", "t", "1", "0", "x")
	doErr(t, c, "CLOSED", "CHECKPOINT")

	// The session survives all of it: framing is intact, non-engine
	// commands still answer.
	if r := do(t, c, "PING"); r.Str != "PONG" {
		t.Fatalf("PING after engine close: %+v", r)
	}
	if r := do(t, c, "ECHO", "still-here"); string(r.Bulk) != "still-here" {
		t.Fatalf("ECHO after engine close: %+v", r)
	}
}

// TestDrainAnswersQueuedThenHangsUp: a session idle at drain time (parked
// in Read) closes promptly without an error reply.
func TestDrainAnswersQueuedThenHangsUp(t *testing.T) {
	srv, _ := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Prove the session is up before draining it.
	if _, err := conn.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	r := proto.NewReader(conn)
	if rep, err := r.ReadReply(); err != nil || rep.Str != "PONG" {
		t.Fatalf("PING: %+v %v", rep, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("idle session after drain: want EOF, got %v", err)
	}
}
