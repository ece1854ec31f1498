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
	"slices"
	"strconv"
	"strings"
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
	code, _, _ := strings.Cut(r.Str, " ")
	return code
}

// bufSize is the Reader's resting buffer size. It equals DefaultMaxLine, so
// the longest permitted line always fits without growing.
const bufSize = DefaultMaxLine

// Reader decodes RESP frames from a stream in one forward pass per frame
// over its one buffer: where the buffer ends mid-frame it reads on until
// the element it stopped at is whole and resumes there, so a frame costs O(its
// bytes) however they arrive. ReadCommand returns arguments that alias the
// buffer, ReadReply copies out what it returns. The buffer grows past
// bufSize only to hold the one command frame in flight — every length is
// checked against the limits first — and drops back once it is consumed.
type Reader struct {
	src io.Reader
	// buf[r:w] holds the bytes read from src and not yet consumed. keep
	// (≤ r) is the start of the frame being decoded: a refill preserves
	// buf[keep:] and slides it to the front, so the scanner holds every
	// position inside the frame as an offset from keep.
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
	MaxBulk, MaxArity, MaxLine int
}

// span locates one argument inside the frame being decoded.
type span struct{ off, n int }

// NewReader wraps r in a frame decoder with default limits.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r, buf: make([]byte, bufSize)}
}

func (r *Reader) maxBulk() int  { return limit(r.MaxBulk, DefaultMaxBulk) }
func (r *Reader) maxArity() int { return limit(r.MaxArity, DefaultMaxArity) }
func (r *Reader) maxLine() int  { return limit(r.MaxLine, DefaultMaxLine) }

// limit is a Reader's limit: the one set, if it is positive, else def.
func limit(set, def int) int {
	if set > 0 {
		return set
	}
	return def
}

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

// fill reads into the buffer's free space until the frame's first off
// bytes, buf[keep:keep+off], are there. It makes room for them by sliding
// buf[keep:] to the front, then by growing the buffer; callers check off
// against the frame limits first.
func (r *Reader) fill(off int) error {
	if r.keep > 0 {
		r.w = copy(r.buf, r.buf[r.keep:r.w])
		r.r, r.keep = r.r-r.keep, 0
	}
	if off > len(r.buf) {
		buf := make([]byte, max(2*len(r.buf), off))
		copy(buf, r.buf[:r.w])
		r.buf = buf
	}
	for empty := 0; r.w < off; {
		if err := r.err; err != nil {
			r.err = nil
			return err
		}
		n, err := r.src.Read(r.buf[r.w:])
		if r.w += n; n > 0 {
			r.err, empty = err, 0
		} else if err != nil {
			return err
		} else if empty++; empty == 100 { // consecutive (0, nil) reads: give up, as bufio does
			return io.ErrNoProgress
		}
	}
	return nil
}

// fillTo is fill inside a frame, where the stream ending tears the frame.
func (r *Reader) fillTo(off int) (err error) {
	if r.w-r.keep < off {
		if err = r.fill(off); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	return err
}

// lineEnd returns the offset of the LF that ends the line starting at
// offset off of the frame, reading until it has arrived without scanning a
// byte twice. RESP terminates every line with CRLF, so a bare LF is
// ErrProto; a line longer than MaxLine, terminator included, ErrTooLarge.
func (r *Reader) lineEnd(off int) (int, error) {
	for scanned := 0; ; {
		start := r.keep + off
		if i := bytes.IndexByte(r.buf[start+scanned:r.w], '\n'); i >= 0 {
			end := scanned + i
			if end+1 > r.maxLine() {
				break
			}
			if end == 0 || r.buf[start+end-1] != '\r' {
				return 0, fmt.Errorf("%w: line not CRLF-terminated", ErrProto)
			}
			return off + end, nil
		}
		if scanned = r.w - start; scanned >= r.maxLine() {
			break
		}
		if err := r.fillTo(r.w - r.keep + 1); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("%w: line exceeds %d bytes", ErrTooLarge, r.maxLine())
}

// number parses the decimal line at offset off of the frame and returns
// it with the offset past its CRLF. Up to 18 buffered digits and a CRLF
// are read in place; anything else (a sign, more digits, a malformed or
// unfinished line) takes lineEnd and ParseInt, with their errors.
func (r *Reader) number(off int) (int64, int, error) {
	b := r.buf[r.keep+off : r.w]
	var n int64
	for i, c := range b {
		if c-'0' <= 9 && i < 18 {
			n = n*10 + int64(c-'0')
			continue
		}
		if c == '\r' && i > 0 && i+1 < len(b) && b[i+1] == '\n' && i+2 <= r.maxLine() {
			return n, off + i + 2, nil
		}
		break
	}
	end, err := r.lineEnd(off)
	if err == nil {
		line := r.buf[r.keep+off : r.keep+end-1]
		if n, err = ParseInt(line); err != nil {
			err = fmt.Errorf("%w: bad integer %q", ErrProto, line)
		}
	}
	return n, end + 1, err
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

// bulkError reports a declared bulk length that is negative or over
// MaxBulk; callers check it before any room is made for the body.
func (r *Reader) bulkError(n int64) error {
	if n < 0 {
		return fmt.Errorf("%w: negative bulk length %d", ErrProto, n)
	}
	return fmt.Errorf("%w: bulk of %d bytes exceeds %d", ErrTooLarge, n, r.maxBulk())
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
		if r.buf[r.r] == '*' {
			return r.readArray()
		}
		end, err := r.lineEnd(0)
		if err != nil {
			return nil, err
		}
		r.args = splitInline(r.args[:0], r.buf[r.keep:r.keep+end-1])
		r.r = r.keep + end + 1
		if len(r.args) == 0 {
			continue // empty line between commands: ignore
		}
		if len(r.args) > r.maxArity() {
			return nil, fmt.Errorf("%w: %d arguments exceed %d", ErrTooLarge, len(r.args), r.maxArity())
		}
		return r.args, nil
	}
}

// readArray scans the request array that starts the frame: its header,
// then each bulk string's type byte, length line, body and CRLF, recording
// the bodies as spans until the frame is whole and cannot move any more.
func (r *Reader) readArray() ([][]byte, error) {
	n, off, err := r.number(1)
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
		if err := r.fillTo(off + 1); err != nil {
			return nil, err
		}
		if t := r.buf[r.keep+off]; t != '$' {
			return nil, fmt.Errorf("%w: request element %d is %q, want bulk string", ErrProto, i, t)
		}
		ln, body, err := r.number(off + 1)
		if err != nil {
			return nil, err
		}
		if uint64(ln) > uint64(r.maxBulk()) {
			return nil, r.bulkError(ln)
		}
		off = body + int(ln) + 2
		if err := r.fillTo(off); err != nil {
			return nil, err
		}
		if end := r.keep + off; r.buf[end-2] != '\r' || r.buf[end-1] != '\n' {
			return nil, fmt.Errorf("%w: bulk not CRLF-terminated", ErrProto)
		}
		r.spans = append(r.spans, span{body, int(ln)})
	}
	r.r = r.keep + off
	r.args = r.args[:0]
	for _, s := range r.spans {
		at := r.keep + s.off
		r.args = append(r.args, r.buf[at:at+s.n:at+s.n])
	}
	return r.args, nil
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

// ReadReply reads one server reply, including nested arrays. io.EOF is
// returned only at a clean frame boundary. Nothing in the reply aliases
// the Reader: the caller owns Bulk, which has an allocation of its own —
// unless the reply is one of a ReadReplies call, whose replies share one
// arena.
func (r *Reader) ReadReply() (rep Reply, err error) {
	if err = r.begin(); err == nil {
		if err = r.readReply(0, &rep); err == nil {
			return rep, nil
		}
	}
	return Reply{}, err
}

// ReadReplies decodes n replies straight into dst's next elements, as n
// ReadReply calls do, except that their bulk payloads share one arena: a
// single allocation, sized from the previous call's payloads, each Bulk
// capped at its own length so that appending to one never reaches its
// neighbour, and followed by one twice its size if it runs out. Keeping
// any Bulk keeps its whole arena alive.
func (r *Reader) ReadReplies(dst []Reply, n int) ([]Reply, error) {
	r.arena, r.carved = make([]byte, 0, r.carved), 0
	defer func() { r.arena = nil }()
	dst = slices.Grow(dst, max(n, 0))
	for ; n > 0; n-- {
		if err := r.begin(); err != nil {
			return dst, err
		}
		dst = dst[:len(dst)+1]
		if err := r.readReply(0, &dst[len(dst)-1]); err != nil {
			return dst[:len(dst)-1], err
		}
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

// readReply decodes the reply at r into rep: its type byte and line, then
// a bulk body or, recursing, an array's elements.
func (r *Reader) readReply(depth int, rep *Reply) error {
	r.keep = r.r // nothing of the reply so far is referenced from the buffer
	if err := r.fillTo(1); err != nil {
		return err
	}
	t := r.buf[r.r]
	if t != ':' && t != '$' && t != '*' {
		end, err := r.lineEnd(1)
		if err != nil {
			return err
		}
		line := r.buf[r.keep+1 : r.keep+end-1]
		r.r = r.keep + end + 1
		switch t {
		case '+':
			*rep = Reply{Kind: KindSimple, Str: status(line)}
		case '-':
			*rep = Reply{Kind: KindError, Str: string(line)}
		default:
			return fmt.Errorf("%w: unknown type byte %q", ErrProto, t)
		}
		return nil
	}
	n, off, err := r.number(1)
	if err != nil {
		return err
	}
	r.r = r.keep + off
	switch {
	case t == ':':
		*rep = Reply{Kind: KindInt, Int: n}
	case n == -1:
		*rep = Reply{Kind: KindNull}
	case t == '$':
		if uint64(n) > uint64(r.maxBulk()) {
			return r.bulkError(n)
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
				return err
			}
		}
		r.keep = r.r
		if err := r.fillTo(2); err != nil {
			return err
		}
		if r.buf[r.r] != '\r' || r.buf[r.r+1] != '\n' {
			return fmt.Errorf("%w: bulk not CRLF-terminated", ErrProto)
		}
		r.r += 2
		*rep = Reply{Kind: KindBulk, Bulk: body}
	default:
		if n < 0 || n > int64(r.maxArity()) {
			return fmt.Errorf("%w: array of %d elements", ErrTooLarge, n)
		}
		if depth >= maxReplyDepth {
			return fmt.Errorf("%w: arrays nested deeper than %d", ErrProto, maxReplyDepth)
		}
		*rep = Reply{Kind: KindArray, Elems: make([]Reply, n)}
		for i := range rep.Elems {
			if err := r.readReply(depth+1, &rep.Elems[i]); err != nil {
				return err
			}
		}
	}
	return nil
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

// Writer encodes RESP frames onto a buffered stream, each appended whole
// to the write buffer's free space and handed to it in one Write. It is not
// safe for concurrent use: a server session writes from its one goroutine,
// the client under its connection mutex.
type Writer struct{ bw *bufio.Writer }

// NewWriter wraps w in a frame encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// frame returns the write buffer's free space for a frame of at most n
// bytes, flushed first if the frame does not fit. A frame larger than the
// whole buffer outgrows it: append copies it once, bufio writes it through.
func (w *Writer) frame(n int) []byte {
	if n > w.bw.Available() && w.bw.Buffered() > 0 {
		w.bw.Flush()
	}
	return w.bw.AvailableBuffer()
}

// digits is the length of n in decimal, sign included.
func digits(n int64) int {
	d, u := 1, uint64(n)
	if n < 0 {
		d, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		d++
	}
	return d
}

// appendNumber appends a type byte, a decimal and CRLF, by hand below 1000:
// inline for one digit, the length of most arguments.
func appendNumber(b []byte, t byte, n int64) []byte {
	if uint64(n) < 10 {
		return append(b, t, byte('0'+n), '\r', '\n')
	}
	return appendDecimal(b, t, n)
}

func appendDecimal(b []byte, t byte, n int64) []byte {
	switch {
	case uint64(n) < 100:
		b = append(b, t, byte('0'+n/10), byte('0'+n%10))
	case uint64(n) < 1000:
		b = append(b, t, byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
	default:
		b = strconv.AppendInt(append(b, t), n, 10)
	}
	return append(b, '\r', '\n')
}

// appendBulk appends a $len bulk string.
func appendBulk(b, p []byte) []byte {
	return append(append(appendNumber(b, '$', int64(len(p))), p...), '\r', '\n')
}

// bulkSize is the encoded length of a bulk string of n bytes.
func bulkSize(n int) int { return digits(int64(n)) + n + 5 }

// WriteSimple writes a +status reply.
func (w *Writer) WriteSimple(s string) {
	w.bw.Write(append(append(append(w.frame(len(s)+3), '+'), s...), '\r', '\n'))
}

// WriteError writes a -CODE message reply. The message has CR and LF
// stripped so it can never break the framing (the frame's size counts them).
func (w *Writer) WriteError(code, msg string) {
	b := append(append(w.frame(len(code)+len(msg)+4), '-'), code...)
	if msg != "" {
		b = append(b, ' ')
		for i := 0; i < len(msg); i++ {
			if c := msg[i]; c != '\r' && c != '\n' {
				b = append(b, c)
			}
		}
	}
	w.bw.Write(append(b, '\r', '\n'))
}

// WriteInt writes a :n integer reply.
func (w *Writer) WriteInt(n int64) { w.bw.Write(appendNumber(w.frame(digits(n)+3), ':', n)) }

// WriteBulk writes a $len binary-safe bulk reply.
func (w *Writer) WriteBulk(p []byte) { w.bw.Write(appendBulk(w.frame(bulkSize(len(p))), p)) }

// WriteBulkString writes a bulk reply from a string.
func (w *Writer) WriteBulkString(s string) { w.WriteBulk([]byte(s)) }

// WriteNull writes the $-1 null bulk reply.
func (w *Writer) WriteNull() { w.bw.Write(append(w.frame(5), "$-1\r\n"...)) }

// WriteArray writes an *n array header; n nested replies follow it.
func (w *Writer) WriteArray(n int) {
	w.bw.Write(appendNumber(w.frame(digits(int64(n))+3), '*', int64(n)))
}

// WriteCommand writes one client request as a RESP array of bulk strings.
func (w *Writer) WriteCommand(args ...[]byte) {
	n := digits(int64(len(args))) + 3
	for _, a := range args {
		n += bulkSize(len(a))
	}
	b := appendNumber(w.frame(n), '*', int64(len(args)))
	for _, a := range args {
		b = appendBulk(b, a)
	}
	w.bw.Write(b)
}

// Flush pushes buffered frames to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }
