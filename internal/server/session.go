package server

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"ipa"
	"ipa/internal/proto"
	"ipa/internal/stat"
)

// session is one client connection, served by one goroutine: decode a
// frame, execute it, encode its reply, in order — which is also what gives
// BEGIN/…/COMMIT sequences their meaning on a pipelined connection. The
// decoder parses in place, so a command's arguments alias the read buffer
// and are valid only until execute returns. Replies accumulate in the
// write buffer and go out exactly when the decoder has to go back to the
// socket for more input (Read below): a batch that arrived together is
// answered together, in one syscall, and the session never waits for
// input while holding replies. Per connection that is a read buffer, the
// one frame in flight and a write buffer — nothing is queued.
type session struct {
	srv  *Server
	conn net.Conn
	r    *proto.Reader
	w    *proto.Writer

	// tx is the connection's open explicit transaction, nil outside
	// BEGIN…COMMIT/ABORT. Aborted on disconnect.
	tx *ipa.Tx

	// quit is set by the QUIT command: flush and hang up.
	quit bool

	// lat is this session's row of the server's latency distributions.
	lat []stat.Wait
	// mark is the server clock at the end of the last command or socket
	// read, where the next command's latency span starts.
	mark time.Duration

	// tbl is the last table a command named: tables are never dropped, so
	// it stays valid and a run of commands on one table resolves it once.
	tbl *ipa.Table
	// row is GET's reply scratch, reused from command to command.
	row []byte
}

func newSession(srv *Server, conn net.Conn) *session {
	s := &session{
		srv:  srv,
		conn: conn,
		w:    proto.NewWriter(conn),
		lat:  srv.lat[(srv.nextRow.Add(1)-1)%uint64(len(srv.lat))],
	}
	s.r = proto.NewReader(s)
	return s
}

// Read is the decoder's source: the socket, behind the flush rule.
func (s *session) Read(p []byte) (int, error) {
	if err := s.w.Flush(); err != nil {
		return 0, err
	}
	n, err := s.conn.Read(p)
	s.mark = s.srv.clock()
	return n, err
}

// serve runs the session to completion.
func (s *session) serve() {
	defer s.srv.dropSession(s)
	defer s.conn.Close()
	for !s.quit {
		args, err := s.r.ReadCommand()
		if err != nil {
			// A malformed frame cannot be resynchronised: report it as the
			// final reply, then hang up. Anything else — the peer gone, a
			// dead connection, the drain deadline — just ends the session.
			if errors.Is(err, proto.ErrProto) || errors.Is(err, proto.ErrTooLarge) {
				s.writeError(codeProto, err.Error())
			}
			break
		}
		s.srv.lanes.acquire() // engine admission: chips × GOMAXPROCS lanes
		s.execute(args)
		s.srv.lanes.release()
		if s.srv.poisonArgs {
			for _, a := range args {
				for i := range a {
					a[i] = 0xA5
				}
			}
		}
	}
	_ = s.w.Flush() // the last replies; the connection closes either way
	// A half-read frame dies with the connection, but an open explicit
	// transaction must not leak its locks: abort it.
	if s.tx != nil {
		_ = s.tx.Abort()
		s.tx = nil
	}
}

// drain makes the session stop taking input off the socket: an immediate
// read deadline fails the read in flight and every later one. The commands
// already in the read buffer still run; their replies are flushed by the
// read that then fails, and the session hangs up. A frame cut in half at
// that point is dropped without a reply.
func (s *session) drain() {
	s.conn.SetReadDeadline(time.Now())
}

// writeError emits one error reply and counts it.
func (s *session) writeError(code, msg string) {
	atomic.AddUint64(&s.srv.counts.ErrorReplies, 1)
	s.w.WriteError(code, msg)
}
