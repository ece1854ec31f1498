// Package proto implements the wire codec shared by the ipa server and
// client: RESP2-compatible framing (the REdis Serialization Protocol), so
// off-the-shelf Redis clients and redis-cli can speak the simple verbs
// while ipaclient gets a typed Go surface.
//
// A client request is one RESP array of bulk strings (the command name
// followed by its arguments) or, for hand-typed telnet sessions, one
// inline command: a whitespace-separated line. A server reply is any RESP
// value: simple string (+OK), error (-CODE message), integer (:n), bulk
// string ($len), null bulk ($-1) or array (*n of further replies).
//
// The codec is defensive by construction: every length prefix is bounded
// (MaxBulk bytes per bulk string, MaxArity elements per request array,
// MaxLine bytes per line), torn frames surface io.ErrUnexpectedEOF, and
// malformed input surfaces ErrProto — the decoder never panics and never
// allocates more than the declared limits, which FuzzProtoDecode pins.
// The full frame grammar, command set and error-code table are specified
// in docs/DESIGN_SERVER.md.
package proto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Limits applied by Reader. They bound the memory one peer can make the
// other side allocate before any command is dispatched.
const (
	// DefaultMaxBulk is the largest accepted bulk-string payload.
	DefaultMaxBulk = 8 << 20
	// DefaultMaxArity is the largest accepted request-array element count.
	DefaultMaxArity = 1024
	// DefaultMaxLine is the largest accepted single line (inline commands
	// and length prefixes).
	DefaultMaxLine = 64 << 10
)

// ErrProto reports a malformed frame: an unknown type byte, a broken
// length prefix, a missing CRLF terminator. The connection cannot be
// resynchronised after it and must be closed.
var ErrProto = errors.New("proto: malformed frame")

// ErrTooLarge reports a frame that exceeds the reader's limits. Like
// ErrProto it is unrecoverable: the declared bytes were not consumed.
var ErrTooLarge = errors.New("proto: frame exceeds limit")

// ReplyKind enumerates the RESP value types a reply can carry.
type ReplyKind int

const (
	// KindSimple is a +OK style status string.
	KindSimple ReplyKind = iota
	// KindError is a -CODE message error string.
	KindError
	// KindInt is a :n integer.
	KindInt
	// KindBulk is a $len binary-safe string.
	KindBulk
	// KindNull is the $-1 null bulk string.
	KindNull
	// KindArray is a *n array of nested replies.
	KindArray
)

// String names the reply kind.
func (k ReplyKind) String() string {
	switch k {
	case KindSimple:
		return "simple"
	case KindError:
		return "error"
	case KindInt:
		return "integer"
	case KindBulk:
		return "bulk"
	case KindNull:
		return "null"
	case KindArray:
		return "array"
	default:
		return fmt.Sprintf("ReplyKind(%d)", int(k))
	}
}

// Reply is one decoded server reply.
type Reply struct {
	Kind ReplyKind
	// Str holds the text of simple strings and errors. Error text is
	// "CODE message" with CODE a single upper-case token; see ErrorCode.
	Str string
	// Int holds the value of integer replies.
	Int int64
	// Bulk holds the payload of bulk replies (nil for null).
	Bulk []byte
	// Elems holds the nested replies of array replies.
	Elems []Reply
}

// ErrorCode returns the leading upper-case token of an error reply ("ERR",
// "NOTFOUND", ...) and "" for non-error replies.
func (r Reply) ErrorCode() string {
	if r.Kind != KindError {
		return ""
	}
	for i := 0; i < len(r.Str); i++ {
		if r.Str[i] == ' ' {
			return r.Str[:i]
		}
	}
	return r.Str
}

// bufSize is the Reader's resting buffer size. It equals DefaultMaxLine, so
// the longest permitted line always fits without growing.
const bufSize = DefaultMaxLine

// Reader decodes RESP frames from a stream. It owns one buffer and parses
// in place: ReadCommand returns arguments that alias that buffer, ReadReply
// copies out what it returns. The buffer grows past bufSize only to hold
// the one command frame in flight — every length is checked against the
// limits before a byte of room is made for it — and drops back once that
// frame has been consumed.
type Reader struct {
	src io.Reader
	// buf[r:w] holds the bytes read from src and not yet consumed. keep
	// (≤ r) is the oldest byte a refill must preserve: the start of the
	// command frame being decoded, whose arguments are offsets from it.
	buf        []byte
	keep, r, w int
	// err is a source error that arrived together with data, reported by
	// the refill after that data has been consumed.
	err error

	// spans and args are ReadCommand's reused scratch: the arguments as
	// (offset from keep, length) while the frame may still move, and the
	// slices handed to the caller.
	spans []span
	args  [][]byte

	// arena, during ReadReplies, is where bulk payloads are carved from;
	// carved counts the bytes, and sizes the next call's arena.
	arena  []byte
	carved int

	// MaxBulk, MaxArity and MaxLine bound the accepted frames; the zero
	// value of each selects its package default.
	MaxBulk  int
	MaxArity int
	MaxLine  int
}

// span locates one argument inside the frame being decoded.
type span struct{ off, n int }

// NewReader wraps r in a frame decoder with default limits.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r, buf: make([]byte, bufSize)}
}

func (r *Reader) maxBulk() int {
	if r.MaxBulk > 0 {
		return r.MaxBulk
	}
	return DefaultMaxBulk
}

func (r *Reader) maxArity() int {
	if r.MaxArity > 0 {
		return r.MaxArity
	}
	return DefaultMaxArity
}

func (r *Reader) maxLine() int {
	if r.MaxLine > 0 {
		return r.MaxLine
	}
	return DefaultMaxLine
}

// maxEmptyReads is how many consecutive (0, nil) reads fill tolerates
// before giving up on the source, as bufio does.
const maxEmptyReads = 100

// begin starts a new frame and makes its first byte available: nothing
// before r is needed any more, and a buffer that grew for the previous
// frame is given back once what is left unread fits the resting size. The
// stream ending here ends it at a frame boundary: io.EOF comes back bare.
func (r *Reader) begin() error {
	if len(r.buf) > bufSize && r.w-r.r <= bufSize {
		buf := make([]byte, bufSize)
		r.w = copy(buf, r.buf[r.r:r.w])
		r.r, r.buf = 0, buf
	}
	r.keep = r.r
	if r.r == r.w {
		return r.fill(1)
	}
	return nil
}

// fill reads more bytes from the source, at least one, after making room
// for min of them: the bytes before keep are dropped by sliding the rest to
// the front (so every offset into the buffer must be relative to keep), and
// the buffer grows if buf[keep:] still cannot take min more. Callers check
// min against the frame limits first.
func (r *Reader) fill(min int) error {
	if err := r.err; err != nil {
		r.err = nil
		return err
	}
	if r.keep > 0 {
		copy(r.buf, r.buf[r.keep:r.w])
		r.r -= r.keep
		r.w -= r.keep
		r.keep = 0
	}
	if r.w+min > len(r.buf) {
		buf := make([]byte, max(2*len(r.buf), r.w+min))
		copy(buf, r.buf[:r.w])
		r.buf = buf
	}
	for i := 0; i < maxEmptyReads; i++ {
		n, err := r.src.Read(r.buf[r.w:])
		r.w += n
		if n > 0 {
			r.err = err
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// more is fill inside a frame: the stream ending there is a torn frame.
func (r *Reader) more(min int) error {
	err := r.fill(min)
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// need makes n unconsumed bytes available at buf[r:].
func (r *Reader) need(n int) error {
	for r.w-r.r < n {
		if err := r.more(n - (r.w - r.r)); err != nil {
			return err
		}
	}
	return nil
}

// line consumes one CRLF-terminated line and returns it without the
// terminator; the result aliases the buffer. A bare LF is rejected (RESP
// terminates every line with CRLF); a line longer than MaxLine fails with
// ErrTooLarge.
func (r *Reader) line() ([]byte, error) {
	scanned := 0
	for {
		if i := bytes.IndexByte(r.buf[r.r+scanned:r.w], '\n'); i >= 0 {
			end := r.r + scanned + i
			if end+1-r.r > r.maxLine() {
				break
			}
			if end == r.r || r.buf[end-1] != '\r' {
				return nil, fmt.Errorf("%w: line not CRLF-terminated", ErrProto)
			}
			line := r.buf[r.r : end-1]
			r.r = end + 1
			return line, nil
		}
		if scanned = r.w - r.r; scanned >= r.maxLine() {
			break
		}
		if err := r.more(1); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: line exceeds %d bytes", ErrTooLarge, r.maxLine())
}

// ParseInt is strconv.ParseInt(string(b), 10, 64), with the same value
// and error for any input, minus the string conversion on the common path:
// up to 18 plain digits cannot overflow, and are summed in a loop.
func ParseInt(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var n int64
	for _, c := range b {
		if c-'0' > 9 {
			return strconv.ParseInt(string(b), 10, 64)
		}
		n = n*10 + int64(c-'0')
	}
	return n, nil
}

// parseInt parses a RESP length or integer line.
func parseInt(b []byte) (int64, error) {
	n, err := ParseInt(b)
	if err != nil {
		return 0, fmt.Errorf("%w: bad integer %q", ErrProto, b)
	}
	return n, nil
}

// checkBulk checks a declared bulk length against MaxBulk, before any room
// is made for the body.
func (r *Reader) checkBulk(n int64) error {
	if n < 0 {
		return fmt.Errorf("%w: negative bulk length %d", ErrProto, n)
	}
	if n > int64(r.maxBulk()) {
		return fmt.Errorf("%w: bulk of %d bytes exceeds %d", ErrTooLarge, n, r.maxBulk())
	}
	return nil
}

// bulkEnd consumes the CRLF that closes a bulk body.
func (r *Reader) bulkEnd() error {
	if err := r.need(2); err != nil {
		return err
	}
	if r.buf[r.r] != '\r' || r.buf[r.r+1] != '\n' {
		return fmt.Errorf("%w: bulk not CRLF-terminated", ErrProto)
	}
	r.r += 2
	return nil
}

// ReadCommand reads one client request: a RESP array of bulk strings, or
// an inline command (a non-empty whitespace-separated line that does not
// start with '*'). Empty inline lines are skipped, as in Redis. io.EOF is
// returned only at a clean frame boundary; a connection cut mid-frame
// surfaces io.ErrUnexpectedEOF.
//
// The returned slice and the arguments in it alias the Reader's buffer:
// they are valid until the next call on the Reader. A caller that keeps an
// argument longer copies it.
func (r *Reader) ReadCommand() ([][]byte, error) {
	for {
		if err := r.begin(); err != nil {
			return nil, err
		}
		if r.buf[r.r] != '*' {
			line, err := r.line()
			if err != nil {
				return nil, err
			}
			r.args = splitInline(r.args[:0], line)
			if len(r.args) == 0 {
				continue // empty line between commands: ignore
			}
			if len(r.args) > r.maxArity() {
				return nil, fmt.Errorf("%w: %d arguments exceed %d", ErrTooLarge, len(r.args), r.maxArity())
			}
			return r.args, nil
		}
		r.r++
		header, err := r.line()
		if err != nil {
			return nil, err
		}
		n, err := parseInt(header)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("%w: request array of %d elements", ErrProto, n)
		}
		if n > int64(r.maxArity()) {
			return nil, fmt.Errorf("%w: %d arguments exceed %d", ErrTooLarge, n, r.maxArity())
		}
		r.spans = r.spans[:0]
		for i := int64(0); i < n; i++ {
			if err := r.need(1); err != nil {
				return nil, err
			}
			if t := r.buf[r.r]; t != '$' {
				return nil, fmt.Errorf("%w: request element %d is %q, want bulk string", ErrProto, i, t)
			}
			r.r++
			line, err := r.line()
			if err != nil {
				return nil, err
			}
			ln, err := parseInt(line)
			if err != nil {
				return nil, err
			}
			if err := r.checkBulk(ln); err != nil {
				return nil, err
			}
			if err := r.need(int(ln) + 2); err != nil {
				return nil, err
			}
			r.spans = append(r.spans, span{r.r - r.keep, int(ln)})
			r.r += int(ln)
			if err := r.bulkEnd(); err != nil {
				return nil, err
			}
		}
		return r.materialise(), nil
	}
}

// splitInline appends the fields of an inline command, split on spaces and
// tabs, to args.
func splitInline(args [][]byte, line []byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if i > start {
			args = append(args, line[start:i:i])
		}
	}
	return args
}

// materialise turns the recorded spans of a complete frame into slices of
// the buffer, each capped at its own length.
func (r *Reader) materialise() [][]byte {
	r.args = r.args[:0]
	for _, s := range r.spans {
		at := r.keep + s.off
		r.args = append(r.args, r.buf[at:at+s.n:at+s.n])
	}
	return r.args
}

// ReadReply reads one server reply, including nested arrays. io.EOF is
// returned only at a clean frame boundary. Nothing in the reply aliases
// the Reader: the caller owns Bulk, which has an allocation of its own —
// unless the reply is one of a ReadReplies call, whose replies share one
// arena.
func (r *Reader) ReadReply() (Reply, error) {
	if err := r.begin(); err != nil {
		return Reply{}, err
	}
	return r.readReply(0)
}

// ReadReplies reads n replies and appends them to dst, as n ReadReply
// calls do, except that their bulk payloads share one arena: a single
// allocation, sized from the previous call's payloads, with each Bulk
// capped at its own length so that appending to one never reaches its
// neighbour. An arena that runs out is followed by one twice its size.
// Keeping any Bulk keeps its whole arena alive.
func (r *Reader) ReadReplies(dst []Reply, n int) ([]Reply, error) {
	r.arena, r.carved = make([]byte, 0, r.carved), 0
	defer func() { r.arena = nil }()
	for ; n > 0; n-- {
		rep, err := r.ReadReply()
		if err != nil {
			return dst, err
		}
		dst = append(dst, rep)
	}
	return dst, nil
}

// carve returns room for an n-byte bulk payload: a piece of the arena
// during ReadReplies, else an allocation of its own.
func (r *Reader) carve(n int) []byte {
	if r.arena == nil {
		return make([]byte, n)
	}
	if cap(r.arena)-len(r.arena) < n {
		r.arena = make([]byte, 0, max(n, 2*cap(r.arena)))
	}
	at := len(r.arena)
	r.arena, r.carved = r.arena[:at+n], r.carved+n
	return r.arena[at : at+n : at+n]
}

// maxReplyDepth bounds nested arrays so hostile input cannot recurse the
// decoder into stack exhaustion.
const maxReplyDepth = 8

func (r *Reader) readReply(depth int) (Reply, error) {
	r.keep = r.r // nothing of the reply so far is referenced from the buffer
	if err := r.need(1); err != nil {
		return Reply{}, err
	}
	t := r.buf[r.r]
	r.r++
	line, err := r.line()
	if err != nil {
		return Reply{}, err
	}
	switch t {
	case '+':
		return Reply{Kind: KindSimple, Str: status(line)}, nil
	case '-':
		return Reply{Kind: KindError, Str: string(line)}, nil
	case ':':
		n, err := parseInt(line)
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: KindInt, Int: n}, nil
	case '$':
		n, err := parseInt(line)
		if err != nil {
			return Reply{}, err
		}
		if n == -1 {
			return Reply{Kind: KindNull}, nil
		}
		if err := r.checkBulk(n); err != nil {
			return Reply{}, err
		}
		// What is buffered is copied out; the rest of a larger body is read
		// straight into its destination.
		body := r.carve(int(n))
		got := copy(body, r.buf[r.r:r.w])
		r.r += got
		if got < len(body) {
			err := r.err
			if r.err = nil; err == nil {
				_, err = io.ReadFull(r.src, body[got:])
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return Reply{}, err
			}
		}
		r.keep = r.r
		if err := r.bulkEnd(); err != nil {
			return Reply{}, err
		}
		return Reply{Kind: KindBulk, Bulk: body}, nil
	case '*':
		n, err := parseInt(line)
		if err != nil {
			return Reply{}, err
		}
		if n == -1 {
			return Reply{Kind: KindNull}, nil
		}
		if n < 0 || n > int64(r.maxArity()) {
			return Reply{}, fmt.Errorf("%w: array of %d elements", ErrTooLarge, n)
		}
		if depth >= maxReplyDepth {
			return Reply{}, fmt.Errorf("%w: arrays nested deeper than %d", ErrProto, maxReplyDepth)
		}
		elems := make([]Reply, 0, n)
		for i := int64(0); i < n; i++ {
			e, err := r.readReply(depth + 1)
			if err != nil {
				return Reply{}, err
			}
			elems = append(elems, e)
		}
		return Reply{Kind: KindArray, Elems: elems}, nil
	default:
		return Reply{}, fmt.Errorf("%w: unknown type byte %q", ErrProto, t)
	}
}

// status returns a simple-string reply's text, without allocating for the
// two statuses the server sends on its hot paths.
func status(line []byte) string {
	switch string(line) {
	case "OK":
		return "OK"
	case "PONG":
		return "PONG"
	}
	return string(line)
}

// Writer encodes RESP frames onto a buffered stream. It is not safe for
// concurrent use: a server session writes from its one goroutine, the
// client under its connection mutex.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter wraps w in a frame encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// WriteSimple writes a +status reply.
func (w *Writer) WriteSimple(s string) {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// WriteError writes a -CODE message reply. The message has CR and LF
// stripped so it can never break the framing.
func (w *Writer) WriteError(code, msg string) {
	w.bw.WriteByte('-')
	w.bw.WriteString(code)
	if msg != "" {
		w.bw.WriteByte(' ')
		for i := 0; i < len(msg); i++ {
			if c := msg[i]; c != '\r' && c != '\n' {
				w.bw.WriteByte(c)
			}
		}
	}
	w.bw.WriteString("\r\n")
}

// writeNumber writes a type byte, a decimal and CRLF, formatted in the
// write buffer's own free space: by hand below 1000, which covers the
// lengths and counts of the common replies.
func (w *Writer) writeNumber(t byte, n int64) {
	b := append(w.bw.AvailableBuffer(), t)
	switch {
	case uint64(n) < 10:
		b = append(b, byte('0'+n))
	case uint64(n) < 100:
		b = append(b, byte('0'+n/10), byte('0'+n%10))
	case uint64(n) < 1000:
		b = append(b, byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
	default:
		b = strconv.AppendInt(b, n, 10)
	}
	w.bw.Write(append(b, '\r', '\n'))
}

// WriteInt writes a :n integer reply.
func (w *Writer) WriteInt(n int64) { w.writeNumber(':', n) }

// WriteBulk writes a $len binary-safe bulk reply.
func (w *Writer) WriteBulk(b []byte) {
	w.writeNumber('$', int64(len(b)))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// WriteBulkString writes a bulk reply from a string.
func (w *Writer) WriteBulkString(s string) { w.WriteBulk([]byte(s)) }

// WriteNull writes the $-1 null bulk reply.
func (w *Writer) WriteNull() {
	w.bw.WriteString("$-1\r\n")
}

// WriteArray writes an *n array header; the caller then writes n nested
// replies.
func (w *Writer) WriteArray(n int) { w.writeNumber('*', int64(n)) }

// WriteCommand writes one client request as a RESP array of bulk strings.
func (w *Writer) WriteCommand(args ...[]byte) {
	w.WriteArray(len(args))
	for _, a := range args {
		w.WriteBulk(a)
	}
}

// Flush pushes buffered frames to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }
