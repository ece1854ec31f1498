package proto

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

func TestReadCommandArray(t *testing.T) {
	r := NewReader(strings.NewReader("*3\r\n$3\r\nGET\r\n$2\r\nkv\r\n$1\r\n7\r\n"))
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatalf("ReadCommand: %v", err)
	}
	want := [][]byte{[]byte("GET"), []byte("kv"), []byte("7")}
	if len(args) != len(want) {
		t.Fatalf("got %d args, want %d", len(args), len(want))
	}
	for i := range want {
		if !bytes.Equal(args[i], want[i]) {
			t.Errorf("arg %d = %q, want %q", i, args[i], want[i])
		}
	}
	if _, err := r.ReadCommand(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestReadCommandInline(t *testing.T) {
	r := NewReader(strings.NewReader("\r\n  PING  \r\nECHO hello\tworld\r\n"))
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatalf("ReadCommand: %v", err)
	}
	if len(args) != 1 || string(args[0]) != "PING" {
		t.Fatalf("inline 1 = %q", args)
	}
	args, err = r.ReadCommand()
	if err != nil {
		t.Fatalf("ReadCommand: %v", err)
	}
	if len(args) != 3 || string(args[1]) != "hello" || string(args[2]) != "world" {
		t.Fatalf("inline 2 = %q", args)
	}
}

func TestReadCommandBinarySafe(t *testing.T) {
	payload := []byte("a\r\nb\x00c")
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteCommand([]byte("SET"), payload)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatalf("ReadCommand: %v", err)
	}
	if !bytes.Equal(args[1], payload) {
		t.Fatalf("payload = %q, want %q", args[1], payload)
	}
}

// TestReadCommandTornFrames cuts a valid frame at every byte boundary: the
// decoder must report io.ErrUnexpectedEOF (never a clean EOF, never a
// panic) for each torn prefix.
func TestReadCommandTornFrames(t *testing.T) {
	frame := "*3\r\n$6\r\nINSERT\r\n$2\r\nkv\r\n$4\r\nvvvv\r\n"
	for cut := 1; cut < len(frame); cut++ {
		r := NewReader(strings.NewReader(frame[:cut]))
		_, err := r.ReadCommand()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReadReplyTornFrames does the same for every reply type.
func TestReadReplyTornFrames(t *testing.T) {
	frames := []string{
		"+OK\r\n",
		"-NOTFOUND ipa: key not found\r\n",
		":12345\r\n",
		"$5\r\nhello\r\n",
		"*2\r\n:1\r\n$2\r\nab\r\n",
	}
	for _, frame := range frames {
		for cut := 1; cut < len(frame); cut++ {
			r := NewReader(strings.NewReader(frame[:cut]))
			_, err := r.ReadReply()
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("frame %q cut at %d: err = %v, want io.ErrUnexpectedEOF", frame, cut, err)
			}
		}
	}
}

func TestReadCommandMalformed(t *testing.T) {
	cases := []string{
		"*2\r\n$3\r\nGET\r\n:5\r\n", // non-bulk element
		"*0\r\n",                    // empty array
		"*-1\r\n",                   // negative array
		"*x\r\n",                    // garbage length
		"$3\r\nGET\r\n",             // bulk where a command is expected: inline "$3"+garbage
		"*1\r\n$-5\r\n\r\n",         // negative bulk length
		"*1\r\n$3\r\nGETX\r\n",      // bulk body not CRLF-terminated at declared length
		"*1\r\n$2\r\nAB\nX",         // LF without CR
	}
	for _, in := range cases {
		r := NewReader(strings.NewReader(in))
		_, err := r.ReadCommand()
		// "$3\r\nGET\r\n" parses as inline command "$3" then "GET": accept
		// any outcome except panic for that one; the rest must error.
		if in == "$3\r\nGET\r\n" {
			continue
		}
		if err == nil {
			t.Errorf("input %q: decoded without error", in)
		}
	}
}

func TestOversizedRejected(t *testing.T) {
	t.Run("bulk", func(t *testing.T) {
		r := NewReader(strings.NewReader("*1\r\n$999999999\r\n"))
		r.MaxBulk = 1024
		_, err := r.ReadCommand()
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("arity", func(t *testing.T) {
		r := NewReader(strings.NewReader("*500000\r\n"))
		r.MaxArity = 64
		_, err := r.ReadCommand()
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("line", func(t *testing.T) {
		r := NewReader(strings.NewReader(strings.Repeat("a", DefaultMaxLine+10) + "\r\n"))
		_, err := r.ReadCommand()
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("declared bulk never allocated", func(t *testing.T) {
		// The declared 8 EiB length must be rejected from the prefix alone.
		r := NewReader(strings.NewReader("*1\r\n$9223372036854775807\r\n"))
		_, err := r.ReadCommand()
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
	})
}

// TestPipelinedBatchDecode decodes a back-to-back batch of frames — the
// shape a pipelining client produces — and checks every frame comes out
// intact and in order.
func TestPipelinedBatchDecode(t *testing.T) {
	const n = 100
	r := NewReader(bytes.NewReader(pipeline(t, n)))
	for i := 0; i < n; i++ {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(args) != 3 || args[1][0] != byte(i) || len(args[2]) != i {
			t.Fatalf("frame %d decoded as %q", i, args)
		}
	}
	if _, err := r.ReadCommand(); err != io.EOF {
		t.Fatalf("after batch: %v, want io.EOF", err)
	}
}

// TestReplyRoundTrip encodes every reply shape and decodes it back.
func TestReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteSimple("OK")
	w.WriteError("CONFLICT", "ipa: record is locked\r\nby another transaction")
	w.WriteInt(-42)
	w.WriteBulk([]byte("tuple\x00bytes"))
	w.WriteNull()
	w.WriteArray(2)
	w.WriteInt(7)
	w.WriteBulkString("row")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	rep, _ := r.ReadReply()
	if rep.Kind != KindSimple || rep.Str != "OK" {
		t.Fatalf("simple = %+v", rep)
	}
	rep, _ = r.ReadReply()
	if rep.Kind != KindError || rep.ErrorCode() != "CONFLICT" {
		t.Fatalf("error = %+v", rep)
	}
	if strings.ContainsAny(rep.Str, "\r\n") {
		t.Fatalf("error text leaked CRLF: %q", rep.Str)
	}
	rep, _ = r.ReadReply()
	if rep.Kind != KindInt || rep.Int != -42 {
		t.Fatalf("int = %+v", rep)
	}
	rep, _ = r.ReadReply()
	if rep.Kind != KindBulk || !bytes.Equal(rep.Bulk, []byte("tuple\x00bytes")) {
		t.Fatalf("bulk = %+v", rep)
	}
	rep, _ = r.ReadReply()
	if rep.Kind != KindNull {
		t.Fatalf("null = %+v", rep)
	}
	rep, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindArray || len(rep.Elems) != 2 || rep.Elems[0].Int != 7 || string(rep.Elems[1].Bulk) != "row" {
		t.Fatalf("array = %+v", rep)
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("after last reply: %v, want io.EOF", err)
	}
}

func TestReplyNestingBounded(t *testing.T) {
	in := strings.Repeat("*1\r\n", maxReplyDepth+2) + ":1\r\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.ReadReply(); !errors.Is(err, ErrProto) {
		t.Fatalf("err = %v, want ErrProto", err)
	}
}

func TestErrorCodeOfNonError(t *testing.T) {
	if c := (Reply{Kind: KindInt, Int: 3}).ErrorCode(); c != "" {
		t.Fatalf("ErrorCode = %q, want empty", c)
	}
	if c := (Reply{Kind: KindError, Str: "CLOSED"}).ErrorCode(); c != "CLOSED" {
		t.Fatalf("ErrorCode = %q, want CLOSED", c)
	}
}

// pipeline encodes n commands of growing size, the shape a pipelining
// client produces.
func pipeline(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < n; i++ {
		w.WriteCommand([]byte("SET"), []byte{byte(i)}, bytes.Repeat([]byte{byte(i)}, i))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArgumentsLiveUntilTheNextCall pins ReadCommand's lifetime contract:
// the arguments of frame k are intact when the call returns and until the
// next one, however often the Reader had to refill and slide its buffer
// while decoding them (here inside every frame: one byte per read). They
// are the Reader's to reuse from then on, which is why decodeCommands and
// everything else that keeps a command copies it.
func TestArgumentsLiveUntilTheNextCall(t *testing.T) {
	const n = 100
	r := NewReader(iotest.OneByteReader(bytes.NewReader(pipeline(t, n))))
	for i := 0; i < n; i++ {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(args) != 3 || string(args[0]) != "SET" || args[1][0] != byte(i) || !bytes.Equal(args[2], bytes.Repeat([]byte{byte(i)}, i)) {
			t.Fatalf("frame %d decoded as %q", i, args)
		}
		// An argument is capped at its own length: appending to one cannot
		// reach the bytes buffered behind it.
		if cap(args[1]) != 1 {
			t.Fatalf("frame %d: argument has capacity %d beyond its length", i, cap(args[1]))
		}
	}
	if _, err := r.ReadCommand(); err != io.EOF {
		t.Fatalf("after the pipeline: %v, want io.EOF", err)
	}
}

// TestTrickledPipelineDecodesIdentically: how the bytes arrive — all at
// once, one per Read, or with io.EOF riding on the last of them — changes
// nothing about what is decoded.
func TestTrickledPipelineDecodesIdentically(t *testing.T) {
	stream := pipeline(t, 100)
	whole, err := decodeCommands(t, bytes.NewReader(stream))
	if len(whole) != 100 || err != io.EOF {
		t.Fatalf("decoded %d frames, then %v; want 100, then io.EOF", len(whole), err)
	}
	for name, src := range map[string]io.Reader{
		"one byte per read": iotest.OneByteReader(bytes.NewReader(stream)),
		"half reads":        iotest.HalfReader(bytes.NewReader(stream)),
		"data with EOF":     iotest.DataErrReader(bytes.NewReader(stream)),
	} {
		if got, err := decodeCommands(t, src); !reflect.DeepEqual(got, whole) || err != io.EOF {
			t.Errorf("%s: decoded %d frames, then %v, that differ from the stream read whole", name, len(got), err)
		}
	}
}

// TestFrameLargerThanTheBuffer: the buffer grows to hold one large frame —
// here a 1 MiB bulk between two small commands — and is back at its
// resting size once that frame has been consumed.
func TestFrameLargerThanTheBuffer(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteCommand([]byte("PING"))
	w.WriteCommand([]byte("SET"), []byte("k"), big)
	w.WriteCommand([]byte("ECHO"), []byte("after"))
	w.WriteBulk(big)
	w.WriteSimple("OK")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(iotest.HalfReader(&buf))
	if args, err := r.ReadCommand(); err != nil || string(args[0]) != "PING" {
		t.Fatalf("first frame: %q %v", args, err)
	}
	args, err := r.ReadCommand()
	if err != nil || len(args) != 3 || !bytes.Equal(args[2], big) {
		t.Fatalf("large frame: %d args, %v", len(args), err)
	}
	if len(r.buf) < len(big) {
		t.Fatalf("buffer is %d bytes while it holds a %d-byte argument", len(r.buf), len(big))
	}
	if args, err := r.ReadCommand(); err != nil || string(args[1]) != "after" {
		t.Fatalf("frame after the large one: %q %v", args, err)
	}
	if len(r.buf) != bufSize {
		t.Fatalf("buffer is %d bytes after the large frame was consumed, want %d", len(r.buf), bufSize)
	}
	// A large bulk reply is read straight into the caller's slice: the
	// buffer does not grow for it at all.
	rep, err := r.ReadReply()
	if err != nil || !bytes.Equal(rep.Bulk, big) {
		t.Fatalf("large bulk reply: %d bytes, %v", len(rep.Bulk), err)
	}
	if len(r.buf) != bufSize {
		t.Fatalf("buffer grew to %d bytes for a bulk reply", len(r.buf))
	}
	if rep, err := r.ReadReply(); err != nil || rep.Str != "OK" {
		t.Fatalf("reply after the large one: %+v %v", rep, err)
	}
}

// TestCodecAllocations pins the codec's steady state: decoding a command
// and encoding a reply allocate nothing, decoding a reply allocates only
// the Bulk the caller keeps.
func TestCodecAllocations(t *testing.T) {
	const runs = 1000
	row := make([]byte, 120)
	var stream bytes.Buffer
	w := NewWriter(&stream)
	r := NewReader(&stream)
	check := func(what string, want float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(runs, f); got != want {
			t.Errorf("%s allocates %.0f times, want %.0f", what, got, want)
		}
	}

	for i := 0; i <= runs; i++ {
		w.WriteCommand([]byte("UPDATE"), []byte("t"), []byte("1234"), []byte("112"), row[:8])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	check("ReadCommand on a warm reader", 0, func() {
		if args, err := r.ReadCommand(); err != nil || len(args) != 5 {
			t.Fatalf("ReadCommand: %q %v", args, err)
		}
	})

	for i := 0; i <= runs; i++ {
		w.WriteSimple("OK")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	check("ReadReply of +OK", 0, func() {
		if rep, err := r.ReadReply(); err != nil || rep.Str != "OK" {
			t.Fatalf("ReadReply: %+v %v", rep, err)
		}
	})

	for i := 0; i <= runs; i++ {
		w.WriteBulk(row)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	check("ReadReply of a bulk", 1, func() {
		if rep, err := r.ReadReply(); err != nil || len(rep.Bulk) != len(row) {
			t.Fatalf("ReadReply: %+v %v", rep, err)
		}
	})

	discard := NewWriter(io.Discard)
	check("WriteBulk of 120 bytes", 0, func() { discard.WriteBulk(row) })
}

// parseIntCases are the inputs on which ParseInt and strconv.ParseInt
// part ways most easily: signs, leading zeros, 18–20 digits on both sides
// of int64's range, empty input and bytes that are not digits.
var parseIntCases = []string{
	"", "0", "7", "-7", "+7", "-", "+", "--1", "007", "-007", "-0",
	"000000000000000000", "0000000000000000000", "999999999999999999",
	"1234567890123456789", "9223372036854775807", "9223372036854775808",
	"-9223372036854775808", "-9223372036854775809", "+9223372036854775807",
	"12345678901234567890", "99999999999999999999", "00000000000000000001",
	"1_000", "12a", "a12", " 12", "12 ", "1\r", "0x1f", "1e3", "/", ":",
	"\xff1", "\u0661",
}

// checkParseInt fails unless ParseInt(b) returns what
// strconv.ParseInt(string(b), 10, 64) does, value and error alike.
func checkParseInt(t *testing.T, b []byte) {
	t.Helper()
	got, err := ParseInt(b)
	want, werr := strconv.ParseInt(string(b), 10, 64)
	if got != want || !reflect.DeepEqual(err, werr) {
		t.Fatalf("ParseInt(%q) = %d, %v; strconv.ParseInt = %d, %v", b, got, err, want, werr)
	}
}

func TestParseIntMatchesStrconv(t *testing.T) {
	for _, in := range parseIntCases {
		checkParseInt(t, []byte(in))
	}
	for n := int64(-1100); n <= 1100; n++ {
		checkParseInt(t, strconv.AppendInt(nil, n, 10))
	}
}

// TestWriteNumberMatchesStrconv holds the hand-formatted decimals below
// 1000 to strconv on both sides of every digit-count boundary.
func TestWriteNumberMatchesStrconv(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, n := range []int64{0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, -1, -9, -10, -999, -1000, 1 << 40, -1 << 63} {
		buf.Reset()
		w.WriteInt(n)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := ":" + strconv.FormatInt(n, 10) + "\r\n"; buf.String() != want {
			t.Fatalf("WriteInt(%d) = %q, want %q", n, buf.String(), want)
		}
	}
}

// TestReadRepliesShareOneArena reads batches of bulk replies, one of them
// nested in an array, through ReadReplies: every payload is intact and
// capped at its length, so appending to one leaves its neighbour alone, an
// arena that runs out mid-batch is followed by a larger one, and a batch
// the size of the one before it costs a single allocation.
func TestReadRepliesShareOneArena(t *testing.T) {
	const n = 32
	var stream bytes.Buffer
	w := NewWriter(&stream)
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 120)
	}
	writeBatch := func() {
		for _, row := range rows[:n-1] {
			w.WriteBulk(row)
		}
		w.WriteArray(2)
		w.WriteInt(7)
		w.WriteBulk(rows[n-1])
	}
	for i := 0; i < 1003; i++ { // two checks, and AllocsPerRun's warm-up and runs
		writeBatch()
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&stream)
	replies := make([]Reply, 0, n)
	read := func() {
		var err error
		if replies, err = r.ReadReplies(replies[:0], n); err != nil || len(replies) != n {
			t.Fatalf("ReadReplies: %d replies, %v", len(replies), err)
		}
	}
	verify := func() {
		t.Helper()
		bulks := make([][]byte, 0, n)
		for _, rep := range replies[:n-1] {
			bulks = append(bulks, rep.Bulk)
		}
		bulks = append(bulks, replies[n-1].Elems[1].Bulk)
		for i, b := range bulks {
			if cap(b) != len(b) {
				t.Fatalf("bulk %d: cap %d, len %d", i, cap(b), len(b))
			}
			_ = append(b, 'X')
			if i > 0 && !bytes.Equal(bulks[i-1], rows[i-1]) {
				t.Fatalf("bulk %d: %q, want %q", i-1, bulks[i-1], rows[i-1])
			}
		}
	}
	read() // the first arena runs out, and is followed by larger ones
	verify()
	read()
	verify()
	if allocs := testing.AllocsPerRun(1000, read); allocs != 2 {
		t.Fatalf("a batch of %d bulk replies allocates %.0f times, want 2 (the arena and the array's elements)", n, allocs)
	}
	verify()
}

// BenchmarkReadCommand decodes the benchmark's UPDATE frame.
func BenchmarkReadCommand(b *testing.B) {
	var frame bytes.Buffer
	w := NewWriter(&frame)
	w.WriteCommand([]byte("UPDATE"), []byte("t"), []byte("1234"), []byte("112"), make([]byte, 8))
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	r := NewReader(&repeatReader{frame: frame.Bytes()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if args, err := r.ReadCommand(); err != nil || len(args) != 5 {
			b.Fatalf("ReadCommand: %q %v", args, err)
		}
	}
}

// BenchmarkReadReply decodes the benchmark's GET reply, a 120-byte bulk.
func BenchmarkReadReply(b *testing.B) {
	var frame bytes.Buffer
	w := NewWriter(&frame)
	w.WriteBulk(make([]byte, 120))
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	r := NewReader(&repeatReader{frame: frame.Bytes()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err := r.ReadReply(); err != nil || len(rep.Bulk) != 120 {
			b.Fatalf("ReadReply: %+v %v", rep, err)
		}
	}
}

// repeatReader is an endless stream of one frame, delivered in reads of as
// many whole frames as fit — a pipelining peer.
type repeatReader struct{ frame []byte }

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n+len(r.frame) <= len(p) {
		n += copy(p[n:], r.frame)
	}
	return n, nil
}

// BenchmarkWriteCommand encodes the benchmark's UPDATE frame.
func BenchmarkWriteCommand(b *testing.B) {
	w := NewWriter(io.Discard)
	args := [][]byte{[]byte("UPDATE"), []byte("t"), []byte("1234"), []byte("112"), make([]byte, 8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WriteCommand(args...)
	}
}

// BenchmarkReadCommandTrickled decodes a MaxArity-argument frame delivered
// whole and one byte per Read, in ns per frame byte: one forward pass makes
// the second a constant factor of the first, whatever the arity.
func BenchmarkReadCommandTrickled(b *testing.B) {
	args := make([][]byte, DefaultMaxArity)
	for i := range args {
		args[i] = []byte(strconv.Itoa(1_000_000 + i))
	}
	var frame bytes.Buffer
	w := NewWriter(&frame)
	w.WriteCommand(args...)
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		src  io.Reader
	}{
		{"whole", &repeatReader{frame: frame.Bytes()}},
		{"one_byte_per_read", &trickleReader{frame: frame.Bytes()}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewReader(bc.src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if args, err := r.ReadCommand(); err != nil || len(args) != DefaultMaxArity {
					b.Fatalf("ReadCommand: %d args, %v", len(args), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(frame.Len()), "ns/B")
		})
	}
}

// TestOneAppendPerFrameAllocatesNothing pins the encoder and the command
// decoder at 0 allocations a frame: each writer appends its frame to the
// write buffer's free space, and a buffered command frame — or one that
// arrives one byte per Read — decodes in place.
func TestOneAppendPerFrameAllocatesNothing(t *testing.T) {
	w := NewWriter(io.Discard)
	update := [][]byte{[]byte("UPDATE"), []byte("t"), []byte("1234"), []byte("112"), make([]byte, 8)}
	for what, f := range map[string]func(){
		"WriteCommand": func() { w.WriteCommand(update...) },
		"WriteSimple":  func() { w.WriteSimple("OK") },
		"WriteError":   func() { w.WriteError("NOTFOUND", "ipa: key not found") },
		"WriteInt":     func() { w.WriteInt(-1234567) },
		"WriteBulk":    func() { w.WriteBulk(update[4]) },
		"WriteNull":    func() { w.WriteNull() },
		"WriteArray":   func() { w.WriteArray(32) },
	} {
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("%s allocates %.0f times a frame, want 0", what, allocs)
		}
	}

	var frame bytes.Buffer
	fw := NewWriter(&frame)
	fw.WriteCommand(update...)
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]io.Reader{
		"buffered":          &repeatReader{frame: frame.Bytes()},
		"one byte per read": &trickleReader{frame: frame.Bytes()},
	} {
		r := NewReader(src)
		if allocs := testing.AllocsPerRun(1000, func() {
			if args, err := r.ReadCommand(); err != nil || len(args) != 5 {
				t.Fatalf("ReadCommand: %q %v", args, err)
			}
		}); allocs != 0 {
			t.Errorf("ReadCommand, %s, allocates %.0f times a frame, want 0", name, allocs)
		}
	}
}

// trickleReader is an endless stream of one frame, delivered one byte per
// Read — the slowest peer the decoder has to resume on.
type trickleReader struct {
	frame []byte
	at    int
}

func (r *trickleReader) Read(p []byte) (int, error) {
	p[0] = r.frame[r.at]
	r.at = (r.at + 1) % len(r.frame)
	return 1, nil
}
