package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"time"

	"ipa"
	"ipa/internal/proto"
	"ipa/internal/server"
	"ipa/ipaclient"
)

// runOpts selects one run. The command always runs the workloads as
// spec.go sizes them; the tests shrink them.
type runOpts struct {
	w        workload
	seed     uint64
	seconds  int
	trace    bool
	setups   int    // set-ups timed per run; setup_s is their median
	spanPath string // where a traced run writes its spans ("" = nowhere)
}

// engine is one opened database, plus the server and client in front of it
// on the wire workloads.
type engine struct {
	db  *ipa.DB
	tbl *ipa.Table
	srv *server.Server
	cl  *ipaclient.Client
}

// close releases a set-up that is not going to be measured.
func (e *engine) close() error {
	if e.srv == nil {
		return e.db.Close()
	}
	err := e.cl.Close()
	return errors.Join(err, e.srv.Shutdown(context.Background()))
}

// slicesPerRun is how many equal slices the measured phase is cut into.
// ops_per_s is built from the median slice, so a burst of interference on
// a shared box that slows a few slices does not move it.
const slicesPerRun = 64

// runner drives one workload against one engine and keeps the shadow model.
type runner struct {
	w   workload
	eng *engine
	gen *generator

	// shadow[key] is the last acknowledged value of the row's patch field.
	shadow []uint64

	base      time.Time // wall-clock origin of every timestamp
	measuring bool
	lat       hist          // wall latency per operation (wire_pipe: per batch), checkpoints excluded
	vlat      hist          // device-clock time from one operation's end to the next's (wire_pipe: per batch), checkpoints included
	vprev     time.Duration // device clock at the end of the previous operation
	sliceNs   []int64       // wall time of each slice's operations, checkpoints excluded
	ckptNs    []int64       // wall time of each checkpoint call
	attempted uint64
	failed    uint64
	gets      uint64
	updates   uint64
	ckptPages uint64
	genNs     int64 // time spent generating operations, outside the segments

	patch [patchLen]byte

	// Tracing (traced runs only): windows of traceWindow operations
	// alternate between recording spans and not, and the two sets of window
	// times give the overhead of recording.
	tr         *tracer
	opIndex    int
	winNs      int64
	winTraced  bool
	plainWins  []int64
	tracedWins []int64
}

const traceWindow = 1024

func (r *runner) now() int64 { return int64(time.Since(r.base)) }

// setUp opens the database, loads the table through transactions, makes it
// durable, starts the server on the wire workloads and runs the warm-up.
func setUp(o runOpts) (*runner, error) {
	w, sliceOps := o.w, o.w.sliceOps(o.seconds)
	db, err := ipa.Open(w.config())
	if err != nil {
		return nil, err
	}
	tbl, err := db.CreateTable(tableName, tupleSize)
	if err != nil {
		return nil, err
	}
	r := &runner{
		w:      w,
		eng:    &engine{db: db, tbl: tbl},
		gen:    newGenerator(o.seed, w.rows, w.getShare, w.wire, sliceOps),
		shadow: make([]uint64, w.rows),
		base:   time.Now(),
	}
	var row [tupleSize]byte
	for k := 0; k < w.rows; {
		tx := db.Begin()
		for n := 0; n < loadBatch && k < w.rows; n, k = n+1, k+1 {
			rowImage(row[:], int64(k))
			r.shadow[k] = binary.LittleEndian.Uint64(row[patchOff:])
			if err := tx.Insert(tbl, int64(k), row[:]); err != nil {
				return nil, fmt.Errorf("load key %d: %w", k, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, fmt.Errorf("load commit: %w", err)
		}
	}
	if err := db.FlushAll(); err != nil {
		return nil, err
	}
	if _, err := db.Checkpoint(); err != nil {
		return nil, err
	}
	if w.wire {
		r.eng.srv = server.New(db, server.Config{Addr: "127.0.0.1:0"})
		if err := r.eng.srv.Start(); err != nil {
			return nil, err
		}
		if r.eng.cl, err = ipaclient.Dial(r.eng.srv.Addr().String()); err != nil {
			return nil, err
		}
	}
	if err := r.drive((w.warmup+sliceOps-1)/sliceOps, sliceOps); err != nil {
		return nil, err
	}
	if r.failed > 0 {
		return nil, fmt.Errorf("%d operations failed during warm-up", r.failed)
	}
	return r, nil
}

// drive runs slices × sliceOps operations. Each slice is generated outside
// the clock and timed as one stretch; a checkpoint falls due every
// ckptEvery operations and is timed on its own.
func (r *runner) drive(slices, sliceOps int) error {
	sinceCkpt := 0
	for s := 0; s < slices; s++ {
		start := r.now()
		r.gen.fill(sliceOps)
		if r.measuring {
			r.genNs += r.now() - start
		}
		var ns int64
		for i := 0; i < sliceOps; {
			m := min(sliceOps-i, r.w.ckptEvery-sinceCkpt)
			start := r.now()
			if err := r.stretch(i, i+m, start); err != nil {
				return err
			}
			ns += r.now() - start
			i, sinceCkpt = i+m, sinceCkpt+m
			if sinceCkpt == r.w.ckptEvery {
				sinceCkpt = 0
				if err := r.checkpoint(); err != nil {
					return err
				}
			}
		}
		if r.measuring {
			r.sliceNs = append(r.sliceNs, ns)
		}
	}
	return nil
}

// stretch runs operations [from, to) of the current chunk back to back.
func (r *runner) stretch(from, to int, start int64) error {
	switch {
	case !r.w.wire:
		r.local(r.gen.chunk[from:to], start)
		return nil
	case r.w.depth == 1:
		return r.roundTrips(from, to, start)
	default:
		return r.batches(from, to, start)
	}
}

// local runs operations straight against the engine. One clock read per
// operation: an operation's latency runs from the previous one's end to
// its own, so the few nanoseconds of bookkeeping in between are counted
// rather than hidden.
func (r *runner) local(ops []op, prev int64) {
	db, tbl := r.eng.db, r.eng.tbl
	for i := range ops {
		o := &ops[i]
		traced := r.tr != nil && r.windowTraced()
		var ok bool
		if traced {
			ok = r.localTraced(o)
		} else if o.update {
			binary.LittleEndian.PutUint64(r.patch[:], o.patch)
			tx := db.Begin()
			err := tx.UpdateAt(tbl, o.key, patchOff, r.patch[:])
			if err == nil {
				err = tx.Commit()
			} else {
				_ = tx.Abort() // the update's error is the one reported
			}
			ok = err == nil
		} else {
			v, err := tbl.Get(o.key)
			ok = err == nil && len(v) == tupleSize && binary.LittleEndian.Uint64(v[patchOff:]) == r.shadow[o.key]
		}
		r.account(o, ok)
		t := r.now()
		r.sample(t-prev, 1)
		prev = t
	}
}

func (r *runner) localTraced(o *op) bool {
	db, tbl, tr := r.eng.db, r.eng.tbl, r.tr
	if o.update {
		root := tr.begin(spanOpUpdate, 0, r.now())
		binary.LittleEndian.PutUint64(r.patch[:], o.patch)
		s := tr.begin(spanBegin, root, r.now())
		tx := db.Begin()
		tr.end(s, r.now())
		s = tr.begin(spanUpdateAt, root, r.now())
		err := tx.UpdateAt(tbl, o.key, patchOff, r.patch[:])
		tr.end(s, r.now())
		if err == nil {
			s = tr.begin(spanCommit, root, r.now())
			err = tx.Commit()
			tr.end(s, r.now())
		} else {
			_ = tx.Abort()
		}
		tr.end(root, r.now())
		return err == nil
	}
	root := tr.begin(spanOpGet, 0, r.now())
	s := tr.begin(spanGet, root, r.now())
	v, err := tbl.Get(o.key)
	tr.end(s, r.now())
	ok := err == nil && len(v) == tupleSize && binary.LittleEndian.Uint64(v[patchOff:]) == r.shadow[o.key]
	tr.end(root, r.now())
	return ok
}

// roundTrips sends one command per round trip (wire_rt).
func (r *runner) roundTrips(from, to int, prev int64) error {
	cl := r.eng.cl
	for i := from; i < to; i++ {
		o := &r.gen.chunk[i]
		var root uint32
		if r.tr != nil && r.windowTraced() {
			root = r.tr.begin(spanClientDo, 0, r.now())
		}
		reply, err := cl.Do(r.gen.cmds[i]...)
		if root != 0 {
			r.tr.end(root, r.now())
		}
		var se *ipaclient.Error
		if err != nil && !errors.As(err, &se) {
			return fmt.Errorf("wire: %w", err)
		}
		r.account(o, err == nil && r.replyOK(o, reply))
		t := r.now()
		r.sample(t-prev, 1)
		prev = t
	}
	return nil
}

// batches sends depth commands per round trip (wire_pipe); a latency
// sample is one batch.
func (r *runner) batches(from, to int, prev int64) error {
	cl := r.eng.cl
	for i := from; i < to; i += r.w.depth {
		j := min(i+r.w.depth, to)
		var root uint32
		if r.tr != nil && r.windowTraced() {
			root = r.tr.begin(spanClientBatch, 0, r.now())
		}
		replies, err := cl.Batch(r.gen.cmds[i:j])
		if root != 0 {
			r.tr.end(root, r.now())
		}
		if err != nil {
			return fmt.Errorf("wire: %w", err)
		}
		for k := i; k < j; k++ {
			o := &r.gen.chunk[k]
			r.account(o, r.replyOK(o, replies[k-i]))
		}
		t := r.now()
		r.sample(t-prev, j-i)
		prev = t
	}
	return nil
}

func (r *runner) replyOK(o *op, reply proto.Reply) bool {
	if o.update {
		return reply.Kind == proto.KindSimple
	}
	return reply.Kind == proto.KindBulk && len(reply.Bulk) == tupleSize &&
		binary.LittleEndian.Uint64(reply.Bulk[patchOff:]) == r.shadow[o.key]
}

// account books one finished operation into the shadow model and the
// failure count.
func (r *runner) account(o *op, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
		return
	}
	if o.update {
		r.updates++
		r.shadow[o.key] = o.patch
	} else {
		r.gets++
	}
}

// sample records one latency sample covering n operations: the wall time
// the caller measured, and the device-clock time since the previous sample.
func (r *runner) sample(wall int64, n int) {
	if !r.measuring {
		return
	}
	r.lat.record(wall)
	v := r.eng.db.Now()
	r.vlat.record(int64(v - r.vprev))
	r.vprev = v
	if r.tr == nil {
		return
	}
	r.winNs += wall
	r.opIndex += n
	if r.opIndex%traceWindow < n { // crossed a window boundary
		if r.winTraced {
			r.tracedWins = append(r.tracedWins, r.winNs)
		} else {
			r.plainWins = append(r.plainWins, r.winNs)
		}
		r.winNs = 0
		r.winTraced = (r.opIndex/traceWindow)%2 == 1 && r.tr.room(traceWindow*4)
	}
}

func (r *runner) windowTraced() bool { return r.measuring && r.winTraced }

func (r *runner) checkpoint() error {
	start := r.now()
	root := r.tr.begin(spanCheckpoint, 0, start)
	var pages int
	if r.w.wire {
		reply, err := r.eng.cl.Do(argCheckpoint)
		if err != nil {
			return fmt.Errorf("wire checkpoint: %w", err)
		}
		var res ipa.CheckpointResult
		if err := json.Unmarshal(reply.Bulk, &res); err != nil {
			return fmt.Errorf("wire checkpoint reply: %w", err)
		}
		pages = res.PagesFlushed
	} else {
		res, err := r.eng.db.Checkpoint()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		pages = res.PagesFlushed
	}
	end := r.now()
	r.tr.end(root, end)
	if r.measuring {
		r.ckptNs = append(r.ckptNs, end-start)
		r.ckptPages += uint64(pages)
	}
	return nil
}

// verify reads every row back and compares it, byte for byte, with the
// initial image plus the last acknowledged patch. It returns the number of
// rows that were wrong or unreadable.
func verify(rows int, shadow []uint64, get func(key int64) ([]byte, error)) uint64 {
	var want [tupleSize]byte
	var bad uint64
	for k := 0; k < rows; k++ {
		rowImage(want[:], int64(k))
		binary.LittleEndian.PutUint64(want[patchOff:], shadow[k])
		got, err := get(int64(k))
		if err != nil || string(got) != string(want[:]) {
			bad++
		}
	}
	return bad
}

// snapshot is what the benchmark reads at a phase boundary; window
// counters are differences of two snapshots.
type snapshot struct {
	stats   ipa.Stats
	virtual time.Duration
	mallocs uint64
	gcCPU   float64 // seconds of CPU the collector has used, on any P
}

func takeSnapshot(db *ipa.DB) snapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return snapshot{stats: db.Stats(), virtual: db.Now(), mallocs: m.Mallocs, gcCPU: gc[0].Value.Float64()}
}

// outcome is everything one run measured, before it is turned into named
// metrics.
type outcome struct {
	o             runOpts
	r             *runner
	ops           int    // measured operations
	gets, updates uint64 // how many of them were which
	setupNs       []int64
	before, after snapshot
	heapBytes     uint64
	heapPages     int
	indexPages    int
	reopenNs      int64
	verifyNs      int64
	recovery      ipa.RecoveryStats
	integrityErr  error

	// In-process reference of a traced wire run: the same operations
	// straight against the engine the server fronts.
	localP50Ns   float64
	localMallocs float64 // per operation
}

// localReference drives n operations of the run's own stream straight
// against the engine and returns their median latency and allocations per
// operation; server.overhead_us and server.allocs_per_cmd are the wire
// figures minus these.
func (r *runner) localReference(n int) (p50Ns, mallocsPerOp float64) {
	lat, vlat, tr := r.lat, r.vlat, r.tr
	r.lat, r.vlat, r.tr = hist{}, hist{}, nil
	r.gen.fill(n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.local(r.gen.chunk, r.now())
	runtime.ReadMemStats(&m1)
	p50Ns = r.lat.quantile(0.5)
	r.lat, r.vlat, r.tr = lat, vlat, tr
	return p50Ns, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// run executes one workload end to end.
func run(o runOpts) (*outcome, error) {
	sliceOps := o.w.sliceOps(o.seconds)
	out := &outcome{o: o, ops: slicesPerRun * sliceOps}
	var r *runner
	for i := 0; i < o.setups; i++ {
		if r != nil {
			if err := r.eng.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		var err error
		if r, err = setUp(o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupNs = append(out.setupNs, int64(time.Since(start)))
	}
	out.r = r
	r.sliceNs = make([]int64, 0, slicesPerRun)
	r.ckptNs = make([]int64, 0, out.ops/r.w.ckptEvery+1)
	if o.trace {
		r.tr = newTracer(traceCap)
		r.plainWins = make([]int64, 0, out.ops/traceWindow+1)
		r.tracedWins = make([]int64, 0, out.ops/traceWindow+1)
	}

	runtime.GC()
	out.before = takeSnapshot(r.eng.db)
	r.measuring, r.vprev = true, out.before.virtual
	r.gets, r.updates = 0, 0 // the warm-up's are not the measured phase's
	if err := r.drive(slicesPerRun, sliceOps); err != nil {
		return nil, err
	}
	out.after = takeSnapshot(r.eng.db)
	out.gets, out.updates = r.gets, r.updates
	// Two collections: the first only moves sync.Pool contents to the
	// victim cache.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.heapBytes = m.HeapAlloc
	out.heapPages, out.indexPages = r.eng.tbl.Pages(), r.eng.tbl.IndexPages()
	if o.trace && o.w.wire {
		out.localP50Ns, out.localMallocs = r.localReference(sliceOps)
	}
	r.measuring = false

	// Oracle, part one: every row, through the path the workload used.
	r.attempted += uint64(o.w.rows)
	if o.w.wire {
		r.failed += verify(o.w.rows, r.shadow, func(key int64) ([]byte, error) {
			reply, err := r.eng.cl.Do(argGet, argTable, strconv.AppendInt(nil, key, 10))
			return reply.Bulk, err
		})
		if err := r.eng.cl.Close(); err != nil {
			return nil, err
		}
	} else {
		r.failed += verify(o.w.rows, r.shadow, r.eng.tbl.Get)
	}

	// Oracle, part two: power cut between operations, reopen, and the same
	// check on what survived.
	start := r.now()
	crashSpan := r.tr.begin(spanCrash, 0, start)
	img := r.eng.db.Crash()
	r.tr.end(crashSpan, r.now())
	reopenSpan := r.tr.begin(spanReopen, 0, r.now())
	db, err := ipa.Reopen(img)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	r.tr.end(reopenSpan, r.now())
	out.reopenNs = r.now() - start
	if o.w.wire {
		// The server still holds the crashed handle; its final checkpoint
		// and close see ErrClosed, which Shutdown tolerates.
		_ = r.eng.srv.Shutdown(context.Background())
	}
	out.recovery = db.RecoveryStats()
	start = r.now()
	r.attempted += uint64(o.w.rows)
	if tbl, ok := db.Table(tableName); ok {
		r.failed += verify(o.w.rows, r.shadow, tbl.Get)
	} else {
		r.failed += uint64(o.w.rows)
	}
	out.integrityErr = db.VerifyIntegrity()
	out.verifyNs = r.now() - start
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if o.trace && o.spanPath != "" {
		if err := r.tr.writeFile(o.spanPath); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// medianInt64 returns the median of vs (mean of the middle two for an even
// count, 0 for none).
func medianInt64(vs []int64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[m])
	}
	return float64(s[m-1]+s[m]) / 2
}
