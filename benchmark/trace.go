package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
)

// Span kinds: one per public call the benchmark makes, plus the roots that
// group the calls of one operation. Spans are recorded from here, around
// the calls into the engine; spans inside the program are a later change.
const (
	spanOpGet = iota + 1
	spanOpUpdate
	spanClientDo
	spanClientBatch
	spanBegin
	spanUpdateAt
	spanCommit
	spanGet
	spanCheckpoint
	spanCrash
	spanReopen
	spanKinds
)

var spanNames = [spanKinds]string{
	spanOpGet:       "op.get",
	spanOpUpdate:    "op.update",
	spanClientDo:    "client.do",
	spanClientBatch: "client.batch",
	spanBegin:       "ipa.begin",
	spanUpdateAt:    "ipa.updateat",
	spanCommit:      "ipa.commit",
	spanGet:         "ipa.get",
	spanCheckpoint:  "ipa.checkpoint",
	spanCrash:       "ipa.crash",
	spanReopen:      "ipa.reopen",
}

// traceCap bounds the span buffer: enough for 32 traced windows of
// one-row transactions (four spans each) plus the lifecycle spans.
const traceCap = 32*traceWindow*4 + 1024

type span struct {
	parent     uint32 // span id of the cause; 0 = a root
	kind       uint8
	start, end int64 // nanoseconds since the run's origin
}

// tracer keeps spans in a buffer allocated before the measured phase; a
// span's id is its index plus one. It is written out when the run ends.
type tracer struct {
	spans []span
}

func newTracer(n int) *tracer { return &tracer{spans: make([]span, 0, n)} }

// room reports whether n more spans fit besides the reserved lifecycle ones.
func (t *tracer) room(n int) bool { return len(t.spans)+n+1024 <= cap(t.spans) }

// begin and end are no-ops on a nil tracer, so the untraced run shares the
// code of the traced one outside the per-operation loop.
func (t *tracer) begin(kind uint8, parent uint32, now int64) uint32 {
	if t == nil || len(t.spans) == cap(t.spans) {
		return 0
	}
	t.spans = append(t.spans, span{parent: parent, kind: kind, start: now})
	return uint32(len(t.spans))
}

func (t *tracer) end(id uint32, now int64) {
	if id != 0 {
		t.spans[id-1].end = now
	}
}

// spanSummary aggregates one kind: how many, total duration, and self time
// (duration minus the part its children cover).
type spanSummary struct {
	n      int
	total  int64
	selfNs int64
}

func (s spanSummary) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n)
}

func (t *tracer) summarize() [spanKinds]spanSummary {
	var out [spanKinds]spanSummary
	for _, s := range t.spans {
		d := s.end - s.start
		out[s.kind].n++
		out[s.kind].total += d
		out[s.kind].selfNs += d
		if s.parent != 0 {
			out[t.spans[s.parent-1].kind].selfNs -= d
		}
	}
	return out
}

// writeFile writes the spans as JSON lines: id, parent, name, start_ns,
// end_ns. The root of an operation's spans is the operation's identifier.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i, s := range t.spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(i+1), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.kind]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
