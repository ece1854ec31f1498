package proto

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// decodeCommands decodes up to 1000 commands from src under the fuzz
// limits, copying each — an argument is only valid until the next call on
// the Reader — and returns them with the error that ended the stream.
func decodeCommands(t *testing.T, src io.Reader) ([][][]byte, error) {
	r := NewReader(src)
	r.MaxBulk = 1 << 16
	r.MaxArity = 64
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
// tight limits. The properties pinned here (and explored further under
// `go test -fuzz FuzzProtoDecode ./internal/proto`): the decoder never
// panics, never allocates past its declared limits, terminates, decodes a
// stream that arrives one byte per Read exactly as it decodes the stream
// whole (every refill, slide and growth of the buffer is invisible), and
// anything it successfully decodes re-encodes to a stream that decodes to
// the same values (round-trip stability for commands).
func FuzzProtoDecode(f *testing.F) {
	f.Add([]byte("*3\r\n$3\r\nGET\r\n$2\r\nkv\r\n$1\r\n7\r\n"))
	f.Add([]byte("+OK\r\n-ERR boom\r\n:42\r\n$4\r\nabcd\r\n$-1\r\n"))
	f.Add([]byte("*2\r\n*1\r\n:1\r\n$0\r\n\r\n"))
	f.Add([]byte("PING\r\nECHO hi\r\n"))
	f.Add([]byte("*1\r\n$9223372036854775807\r\n"))
	f.Add([]byte("*1000000\r\n"))
	f.Add([]byte("$5\r\nab"))
	f.Add([]byte("\r\n\r\n*1\r\n$1\r\nX\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Commands: decode the whole stream, the same stream in one-byte
		// reads, then round-trip what decoded.
		cmds, err := decodeCommands(t, bytes.NewReader(data))
		trickled, terr := decodeCommands(t, iotest.OneByteReader(bytes.NewReader(data)))
		if !reflect.DeepEqual(cmds, trickled) || fmt.Sprint(err) != fmt.Sprint(terr) {
			t.Fatalf("whole stream: %d commands, then %v\none byte per read: %d commands, then %v\n%q\n%q",
				len(cmds), err, len(trickled), terr, cmds, trickled)
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

		// Replies: same stream through the reply decoder — must not panic,
		// must terminate, and must not depend on how the bytes arrive.
		rr := NewReader(bytes.NewReader(data))
		tr := NewReader(iotest.OneByteReader(bytes.NewReader(data)))
		rr.MaxBulk, tr.MaxBulk = 1<<16, 1<<16
		rr.MaxArity, tr.MaxArity = 64, 64
		for i := 0; i < 1000; i++ {
			rep, err := rr.ReadReply()
			trep, terr := tr.ReadReply()
			if !reflect.DeepEqual(rep, trep) || fmt.Sprint(err) != fmt.Sprint(terr) {
				t.Fatalf("reply %d: whole stream %+v %v, one byte per read %+v %v", i, rep, err, trep, terr)
			}
			if err != nil {
				break
			}
		}
	})
}

// FuzzParseIntMatchesStrconv holds ParseInt to strconv.ParseInt(string(b),
// 10, 64) on arbitrary bytes: the same value and the same error.
func FuzzParseIntMatchesStrconv(f *testing.F) {
	for _, in := range parseIntCases {
		f.Add([]byte(in))
	}
	f.Fuzz(checkParseInt)
}
