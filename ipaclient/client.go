// Package ipaclient is the Go client for ipaserver's wire protocol. It
// speaks the RESP-compatible framing of internal/proto over one TCP
// connection: Do sends a single command and waits for its reply, Batch
// pipelines many commands and decodes the replies in order (one round trip
// for a batch that fits the pipelining window). A Client is safe for
// concurrent use, but commands interleave — use one Client per goroutine
// (as cmd/ipaload does) when BEGIN…COMMIT must not interleave with other
// traffic, since the transaction is a property of the connection.
//
// The protocol itself — commands, replies and error codes — is specified
// in docs/DESIGN_SERVER.md.
package ipaclient

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"ipa/internal/proto"
)

// Error is an error reply from the server. Code is one of the stable wire
// codes of docs/DESIGN_SERVER.md ("NOTFOUND", "CONFLICT", ...).
type Error struct {
	Code    string
	Message string
}

func (e *Error) Error() string {
	if e.Message == "" {
		return "ipaclient: " + e.Code
	}
	return fmt.Sprintf("ipaclient: %s %s", e.Code, e.Message)
}

// IsCode reports whether err is a server Error carrying the given wire
// code.
func IsCode(err error, code string) bool {
	se, ok := err.(*Error)
	return ok && se.Code == code
}

// Client is one connection to an ipaserver. The first transport error — a
// failed write, a torn or malformed reply — is sticky: the position in the
// reply stream is lost with it, so every later call returns that error
// instead of decoding from the middle of a frame. Close and dial again.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *proto.Reader
	w    *proto.Writer
	err  error // the first transport error
	// num is scratch for the decimal arguments of the typed calls.
	num [2][20]byte
}

// Dial connects to an ipaserver at addr.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout connects with a bound on connection establishment.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ipaclient: dial %s: %w", addr, err)
	}
	return &Client{
		conn: conn,
		r:    proto.NewReader(conn),
		w:    proto.NewWriter(conn),
	}, nil
}

// Close hangs up. A transaction left open on the connection is aborted by
// the server.
func (c *Client) Close() error { return c.conn.Close() }

// reply converts an error reply into *Error, passing other kinds through.
func reply(r proto.Reply) (proto.Reply, error) {
	if r.Kind == proto.KindError {
		e := &Error{Code: r.ErrorCode()}
		if len(e.Code) < len(r.Str) {
			e.Message = r.Str[len(e.Code)+1:]
		}
		return r, e
	}
	return r, nil
}

// fail records err, met while doing op, as the connection's sticky error.
func (c *Client) fail(op string, err error) error {
	c.err = fmt.Errorf("ipaclient: %s: %w", op, err)
	return c.err
}

// Do sends one command and waits for its reply. Error replies surface as
// *Error; transport failures as ordinary errors.
func (c *Client) Do(args ...[]byte) (proto.Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.do(args...)
}

// do is Do with the connection mutex held.
func (c *Client) do(args ...[]byte) (proto.Reply, error) {
	if c.err != nil {
		return proto.Reply{}, c.err
	}
	c.w.WriteCommand(args...)
	if err := c.w.Flush(); err != nil {
		return proto.Reply{}, c.fail("send", err)
	}
	r, err := c.r.ReadReply()
	if err != nil {
		return proto.Reply{}, c.fail("read reply", err)
	}
	return reply(r)
}

// DoStrings is Do with string arguments.
func (c *Client) DoStrings(args ...string) (proto.Reply, error) {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return c.Do(bs...)
}

// batchWindow bounds the command bytes a Batch leaves unanswered on the
// wire. A server answers as it reads, so once the replies owed exceed what
// the sockets buffer it blocks writing and stops reading; a client still
// writing commands then blocks too, for good. Within the window the
// client's writes always complete, and reading the replies unblocks the
// server.
const batchWindow = 64 << 10

// Batch pipelines the commands and decodes the replies in order: one call,
// and one round trip for every batchWindow bytes of commands (a window
// ends before the command that would overflow it). The bulk payloads of a
// window's replies share one arena (proto.Reader.ReadReplies): each Bulk
// is capped at its own length, but keeping one keeps the arena alive.
// Error replies appear in the returned slice (Kind KindError), not as the
// error return — a batch with a NOTFOUND in the middle still yields all
// replies. The error return is reserved for transport failures, after
// which the replies decoded so far are returned.
func (c *Client) Batch(cmds [][][]byte) ([]proto.Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	replies := make([]proto.Reply, 0, len(cmds))
	unanswered := 0
	for i, args := range cmds {
		size := 16 // array header, generously
		for _, a := range args {
			size += len(a) + 16
		}
		if unanswered > 0 && unanswered+size > batchWindow {
			var err error
			if replies, err = c.collect(replies, i); err != nil {
				return replies, err
			}
			unanswered = 0
		}
		c.w.WriteCommand(args...)
		unanswered += size
	}
	return c.collect(replies, len(cmds))
}

// collect flushes the commands written so far and appends their replies
// until n have been read, their bulk payloads carved from one arena.
func (c *Client) collect(replies []proto.Reply, n int) ([]proto.Reply, error) {
	if err := c.w.Flush(); err != nil {
		return replies, c.fail("send", err)
	}
	replies, err := c.r.ReadReplies(replies, n-len(replies))
	if err != nil {
		return replies, c.fail("read reply", err)
	}
	return replies, nil
}

// Ping round-trips a PING.
func (c *Client) Ping() error {
	_, err := c.DoStrings("PING")
	return err
}

// CreateTable issues CREATE table tupleSize.
func (c *Client) CreateTable(table string, tupleSize int) error {
	_, err := c.DoStrings("CREATE", table, strconv.Itoa(tupleSize))
	return err
}

// decimal formats n into scratch slot i, which the connection mutex guards.
func (c *Client) decimal(i int, n int64) []byte {
	return strconv.AppendInt(c.num[i][:0], n, 10)
}

// Insert issues INSERT table key value.
func (c *Client) Insert(table string, key int64, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.do([]byte("INSERT"), []byte(table), c.decimal(0, key), value)
	return err
}

// Get issues GET table key and returns the tuple.
func (c *Client) Get(table string, key int64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, err := c.do([]byte("GET"), []byte(table), c.decimal(0, key))
	return r.Bulk, err
}

// GetForUpdate issues GETFU table key: a GET under the open
// transaction's record lock, so the returned tuple cannot change before
// COMMIT/ABORT. Outside a transaction the server replies NOTXN.
func (c *Client) GetForUpdate(table string, key int64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, err := c.do([]byte("GETFU"), []byte(table), c.decimal(0, key))
	return r.Bulk, err
}

// Update issues UPDATE table key offset value — a tail-patch of the tuple
// at the given byte offset, the engine's in-place-append fast path.
func (c *Client) Update(table string, key int64, offset int, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.do([]byte("UPDATE"), []byte(table), c.decimal(0, key), c.decimal(1, int64(offset)), value)
	return err
}

// Delete issues DEL table key.
func (c *Client) Delete(table string, key int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.do([]byte("DEL"), []byte(table), c.decimal(0, key))
	return err
}
