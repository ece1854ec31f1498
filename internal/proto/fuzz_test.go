package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"testing"
	"testing/iotest"
)

// decodeCommands decodes up to 1000 commands from src under the fuzz
// limits, copying each — an argument is only valid until the next call on
// the Reader — and returns them with the error that ended the stream.
func decodeCommands(t *testing.T, src io.Reader) ([][][]byte, error) {
	return collectCommands(t, newFuzzReader(src, DefaultMaxLine))
}

// newFuzzReader is a Reader under the fuzz limits, with lines of up to
// maxLine bytes.
func newFuzzReader(src io.Reader, maxLine int) *Reader {
	r := NewReader(src)
	r.MaxBulk, r.MaxArity, r.MaxLine = 1<<16, 64, maxLine
	return r
}

// commandReader is what collectCommands drives: the codec's Reader or the
// reference model's.
type commandReader interface{ ReadCommand() ([][]byte, error) }

func collectCommands(t *testing.T, r commandReader) ([][][]byte, error) {
	var cmds [][][]byte
	for i := 0; i < 1000; i++ {
		args, err := r.ReadCommand()
		if err != nil {
			return cmds, err
		}
		if len(args) == 0 {
			t.Fatalf("ReadCommand returned an empty command without error")
		}
		cmds = append(cmds, cloneArgs(args))
	}
	return cmds, nil
}

func cloneArgs(args [][]byte) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = bytes.Clone(a)
	}
	return out
}

// FuzzProtoDecode drives both decoders over arbitrary byte streams with
// tight limits, against the reference model below (the decoder and encoder
// the one-pass codec replaced, element by element). The properties pinned
// here (and explored further under `go test -fuzz FuzzProtoDecode
// ./internal/proto`): the decoder never panics, never allocates past its
// declared limits, terminates, and returns the commands, the replies and
// the error text the reference does, both on the stream read whole and one
// byte per Read (so every refill, slide and growth of the buffer is
// invisible); one ReadReplies call decodes what as many ReadReply calls
// do; the encoder writes, byte for byte, what the reference writes; and
// anything that decodes re-encodes to a stream that decodes to the same
// values (round-trip stability for commands).
func FuzzProtoDecode(f *testing.F) {
	f.Add([]byte("*3\r\n$3\r\nGET\r\n$2\r\nkv\r\n$1\r\n7\r\n"))
	f.Add([]byte("+OK\r\n-ERR boom\r\n:42\r\n$4\r\nabcd\r\n$-1\r\n"))
	f.Add([]byte("*2\r\n*1\r\n:1\r\n$0\r\n\r\n"))
	f.Add([]byte("PING\r\nECHO hi\r\n"))
	f.Add([]byte("*1\r\n$9223372036854775807\r\n"))
	f.Add([]byte("*1000000\r\n"))
	f.Add([]byte("$5\r\nab"))
	f.Add([]byte("\r\n\r\n*1\r\n$1\r\nX\r\n"))
	f.Add([]byte("*2\r\n$+3\r\nGET\r\n$0001\r\nk\r\n:-0\r\n$12345678901234567890\r\n"))
	f.Add([]byte("*1\r\n$3\r\nab\r\r\n+OK\n*-1\r\n*3\r\n$-1\r\n-E\r\r\n:x\r\n"))
	// Frames longer than the write buffer: the encoder writes their
	// payloads a bufferful at a time.
	f.Add(append(append([]byte("$5000\r\n"), bytes.Repeat([]byte("x"), 5000)...), "\r\n"...))
	f.Add([]byte("*2\r\n$5\r\nHELLO\r\n$123456\r\n+0123456789\r\n:1\r\n\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// A stream ending in a byte below 8 also caps lines at 3 to 17
		// bytes, so the line limit is met inside length prefixes too.
		maxLine := DefaultMaxLine
		if n := len(data); n > 0 && data[n-1] < 8 {
			maxLine = 3 + 2*int(data[n-1])
		}
		// Commands: decode the whole stream and the same stream in one-byte
		// reads, each against the reference, then round-trip what decoded.
		cmds, err := collectCommands(t, newFuzzReader(bytes.NewReader(data), maxLine))
		for name, src := range map[string]func() io.Reader{
			"whole stream":      func() io.Reader { return bytes.NewReader(data) },
			"one byte per read": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		} {
			got, gerr := collectCommands(t, newFuzzReader(src(), maxLine))
			want, werr := collectCommands(t, newRefReader(src(), maxLine))
			if !reflect.DeepEqual(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s: %d commands, then %v; the reference: %d commands, then %v\n%q\n%q",
					name, len(got), gerr, len(want), werr, got, want)
			}
			if !reflect.DeepEqual(got, cmds) || fmt.Sprint(gerr) != fmt.Sprint(err) {
				t.Fatalf("whole stream: %d commands, then %v\n%s: %d commands, then %v", len(cmds), err, name, len(got), gerr)
			}
		}
		if len(cmds) > 0 {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			for _, c := range cmds {
				w.WriteCommand(c...)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			r2 := NewReader(&buf)
			for i, c := range cmds {
				got, err := r2.ReadCommand()
				if err != nil {
					t.Fatalf("round-trip command %d: %v", i, err)
				}
				if len(got) != len(c) {
					t.Fatalf("round-trip command %d: %d args, want %d", i, len(got), len(c))
				}
				for j := range c {
					if !bytes.Equal(got[j], c[j]) {
						t.Fatalf("round-trip command %d arg %d: %q != %q", i, j, got[j], c[j])
					}
				}
			}
			if _, err := r2.ReadCommand(); err != io.EOF {
				t.Fatalf("round-trip stream has trailing data: %v", err)
			}
		}

		// Replies: the same stream through the reply decoder, against the
		// reference, whole and one byte per read, and once more as a single
		// ReadReplies call over as many replies as decoded, plus the error.
		var replies []Reply
		for _, trickle := range []bool{false, true} {
			src := func() io.Reader {
				if trickle {
					return iotest.OneByteReader(bytes.NewReader(data))
				}
				return bytes.NewReader(data)
			}
			rr, ref := newFuzzReader(src(), maxLine), newRefReader(src(), maxLine)
			var got []Reply
			var gerr error
			for i := 0; i < 1000; i++ {
				rep, err := rr.ReadReply()
				want, werr := ref.ReadReply()
				if !reflect.DeepEqual(rep, want) || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("trickled %v, reply %d: %+v %v, the reference %+v %v", trickle, i, rep, err, want, werr)
				}
				if gerr = err; err != nil {
					break
				}
				got = append(got, rep)
			}
			if replies != nil && !reflect.DeepEqual(got, replies) {
				t.Fatalf("one byte per read decodes %d replies, the whole stream %d", len(got), len(replies))
			}
			replies = got
			rr = newFuzzReader(src(), maxLine)
			n := len(got)
			if gerr != nil {
				n++ // the reply that failed
			}
			batch, berr := rr.ReadReplies(nil, n)
			if len(batch) != len(got) || len(got) > 0 && !reflect.DeepEqual(batch, got) || fmt.Sprint(berr) != fmt.Sprint(gerr) {
				t.Fatalf("trickled %v: ReadReplies decodes %d replies, then %v; ReadReply %d, then %v", trickle, len(batch), berr, len(got), gerr)
			}
		}

		// Encoding: every writer, fed what decoded and the raw bytes, writes
		// what the reference writer does.
		var got, want bytes.Buffer
		for _, w := range []encoder{NewWriter(&got), &refWriter{bufio.NewWriter(&want)}} {
			for _, c := range cmds {
				w.WriteCommand(c...)
			}
			for _, rep := range replies {
				writeReply(w, rep)
			}
			for cut := 0; cut <= len(data); cut += 1 + len(data)/4 {
				w.WriteSimple(string(data[:cut]))
				w.WriteError(string(data[:cut]), string(data[cut:]))
				w.WriteBulk(data[cut:])
				w.WriteArray(cut)
				w.WriteCommand(data[:cut], data[cut:])
			}
			if len(data) >= 8 {
				w.WriteInt(int64(binary.LittleEndian.Uint64(data)))
			}
			w.WriteNull()
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("the encoder wrote %d bytes, the reference %d:\n%q\n%q", got.Len(), want.Len(), got.Bytes(), want.Bytes())
		}
	})
}

// encoder is the method set Writer and refWriter share.
type encoder interface {
	WriteSimple(string)
	WriteError(code, msg string)
	WriteInt(int64)
	WriteBulk([]byte)
	WriteNull()
	WriteArray(int)
	WriteCommand(...[]byte)
	Flush() error
}

// writeReply encodes a decoded reply back onto w.
func writeReply(w encoder, rep Reply) {
	switch rep.Kind {
	case KindSimple:
		w.WriteSimple(rep.Str)
	case KindError:
		w.WriteError(rep.ErrorCode(), rep.Str[min(len(rep.Str), len(rep.ErrorCode())+1):])
	case KindInt:
		w.WriteInt(rep.Int)
	case KindBulk:
		w.WriteBulk(rep.Bulk)
	case KindNull:
		w.WriteNull()
	case KindArray:
		w.WriteArray(len(rep.Elems))
		for _, e := range rep.Elems {
			writeReply(w, e)
		}
	}
}

// refReader is the reference model of Reader: the decoder the one-pass
// scanner replaced, which consumed a frame element by element through
// need, line and bulkEnd, under the fuzz limits.
type refReader struct {
	src        io.Reader
	buf        []byte
	keep, r, w int
	err        error
	spans      []span
	args       [][]byte
	lineLimit  int
}

// maxEmptyReads is how many consecutive (0, nil) reads fill tolerates
// before giving up on the source, as bufio does.
const maxEmptyReads = 100

func newRefReader(src io.Reader, maxLine int) *refReader {
	return &refReader{src: src, buf: make([]byte, bufSize), lineLimit: maxLine}
}

func (r *refReader) maxBulk() int  { return 1 << 16 }
func (r *refReader) maxArity() int { return 64 }
func (r *refReader) maxLine() int  { return r.lineLimit }

// begin starts a new frame and makes its first byte available: nothing
// before r is needed any more, and a buffer that grew for the previous
// frame is given back once what is left unread fits the resting size. The
// stream ending here ends it at a frame boundary: io.EOF comes back bare.
func (r *refReader) begin() error {
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
func (r *refReader) fill(min int) error {
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
func (r *refReader) more(min int) error {
	err := r.fill(min)
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// need makes n unconsumed bytes available at buf[r:].
func (r *refReader) need(n int) error {
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
func (r *refReader) line() ([]byte, error) {
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
func (r *refReader) checkBulk(n int64) error {
	if n < 0 {
		return fmt.Errorf("%w: negative bulk length %d", ErrProto, n)
	}
	if n > int64(r.maxBulk()) {
		return fmt.Errorf("%w: bulk of %d bytes exceeds %d", ErrTooLarge, n, r.maxBulk())
	}
	return nil
}

// bulkEnd consumes the CRLF that closes a bulk body.
func (r *refReader) bulkEnd() error {
	if err := r.need(2); err != nil {
		return err
	}
	if r.buf[r.r] != '\r' || r.buf[r.r+1] != '\n' {
		return fmt.Errorf("%w: bulk not CRLF-terminated", ErrProto)
	}
	r.r += 2
	return nil
}

func (r *refReader) ReadCommand() ([][]byte, error) {
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

// materialise turns the recorded spans of a complete frame into slices of
// the buffer, each capped at its own length.
func (r *refReader) materialise() [][]byte {
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
func (r *refReader) ReadReply() (Reply, error) {
	if err := r.begin(); err != nil {
		return Reply{}, err
	}
	return r.readReply(0)
}

func (r *refReader) readReply(depth int) (Reply, error) {
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
		body := make([]byte, n)
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

// refWriter is the reference model of Writer: the encoder that wrote each
// frame piece by piece through bufio.
type refWriter struct{ bw *bufio.Writer }

func (w *refWriter) Flush() error { return w.bw.Flush() }

// WriteSimple writes a +status reply.
func (w *refWriter) WriteSimple(s string) {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// WriteError writes a -CODE message reply. The message has CR and LF
// stripped so it can never break the framing.
func (w *refWriter) WriteError(code, msg string) {
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
func (w *refWriter) writeNumber(t byte, n int64) {
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
func (w *refWriter) WriteInt(n int64) { w.writeNumber(':', n) }

// WriteBulk writes a $len binary-safe bulk reply.
func (w *refWriter) WriteBulk(b []byte) {
	w.writeNumber('$', int64(len(b)))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// WriteBulkString writes a bulk reply from a string.
func (w *refWriter) WriteBulkString(s string) { w.WriteBulk([]byte(s)) }

// WriteNull writes the $-1 null bulk reply.
func (w *refWriter) WriteNull() {
	w.bw.WriteString("$-1\r\n")
}

// WriteArray writes an *n array header; the caller then writes n nested
// replies.
func (w *refWriter) WriteArray(n int) { w.writeNumber('*', int64(n)) }

// WriteCommand writes one client request as a RESP array of bulk strings.
func (w *refWriter) WriteCommand(args ...[]byte) {
	w.WriteArray(len(args))
	for _, a := range args {
		w.WriteBulk(a)
	}
}

// FuzzParseIntMatchesStrconv holds ParseInt to strconv.ParseInt(string(b),
// 10, 64) on arbitrary bytes: the same value and the same error.
func FuzzParseIntMatchesStrconv(f *testing.F) {
	for _, in := range parseIntCases {
		f.Add([]byte(in))
	}
	f.Fuzz(checkParseInt)
}
