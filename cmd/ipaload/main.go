// Command ipaload is a many-connection load generator for ipaserver. It
// preloads a table, then drives either a mixed UPDATE/GET workload or, with
// -ycsb A..F, one of the YCSB core workloads (zipfian/latest key skew,
// scans, inserts and read-modify-writes over the wire) from N concurrent
// connections, each pipelining commands at a configurable depth
// (-pipeline 1 measures the unpipelined round-trip cost). -conns takes a
// comma-separated sweep, so one invocation produces a whole
// connections-vs-throughput curve; -json writes the machine-readable
// results that CI uploads as bench-server.json.
//
// The exact invocations behind the published curves are recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	ipaload -addr localhost:6389 -conns 1,4,16,64,256 -pipeline 32 -duration 5s
//	ipaload -addr localhost:6389 -ycsb B -conns 16 -duration 5s
//	ipaload -addr localhost:6389 -quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/workload"
	"ipa/ipaclient"
)

type point struct {
	Conns      int     `json:"conns"`
	Pipeline   int     `json:"pipeline"`
	Ops        uint64  `json:"ops"`
	Conflicts  uint64  `json:"conflicts"`
	Errors     uint64  `json:"errors"`
	DurationS  float64 `json:"duration_s"`
	Throughput float64 `json:"tps"`
}

type report struct {
	Benchmark string  `json:"benchmark"`
	Addr      string  `json:"addr"`
	Table     string  `json:"table"`
	Keys      int     `json:"keys"`
	TupleSize int     `json:"tuple_size"`
	UpdatePct int     `json:"update_pct"`
	YCSB      string  `json:"ycsb,omitempty"`
	Points    []point `json:"points"`
}

// ycsbGen turns a YCSB operation mix into wire commands: a letter's mix,
// or the default -updates mix of UPDATEs and GETs over uniform keys.
// Shared by every connection of the sweep: the insert counter hands
// out unique keys, and the zipfian sampler is immutable. Scans use the
// SCAN verb, read-modify-writes pipeline a GET followed by an UPDATE of the
// same key.
type ycsbGen struct {
	mix     workload.YCSBMix
	dist    string
	zipf    *workload.Zipfian
	tuple   int
	nextKey atomic.Int64 // next unused insert key == current keyspace size
}

func newYCSBGen(mix workload.YCSBMix, dist string, keys, tuple int) *ycsbGen {
	g := &ycsbGen{mix: mix, dist: dist, zipf: workload.NewZipfian(int64(keys), workload.YCSBTheta), tuple: tuple}
	g.nextKey.Store(int64(keys))
	return g
}

// gen appends the wire commands of one YCSB operation (one or, for RMW,
// two commands) and returns the updated slice.
func (g *ycsbGen) gen(cmds [][][]byte, rng *rand.Rand, tbl []byte, patchOff []byte) [][][]byte {
	keyArg := func(k int64) []byte { return []byte(strconv.FormatInt(k, 10)) }
	key := func() int64 { return workload.YCSBKey(rng, g.dist, g.zipf, g.nextKey.Load()) }
	patch := func() []byte {
		b := make([]byte, 8)
		rng.Read(b)
		return b
	}
	switch g.mix.Pick(rng) {
	case workload.YCSBRead:
		return append(cmds, [][]byte{[]byte("GET"), tbl, keyArg(key())})
	case workload.YCSBUpdate:
		return append(cmds, [][]byte{[]byte("UPDATE"), tbl, keyArg(key()), patchOff, patch()})
	case workload.YCSBInsert:
		k := g.nextKey.Add(1) - 1
		row := make([]byte, g.tuple)
		for i := range row {
			row[i] = byte('a' + i%26)
		}
		return append(cmds, [][]byte{[]byte("INSERT"), tbl, keyArg(k), row})
	case workload.YCSBScan:
		from := key()
		length := int64(1 + rng.Intn(100))
		return append(cmds, [][]byte{
			[]byte("SCAN"), tbl, keyArg(from), keyArg(from + length), keyArg(length),
		})
	default: // read-modify-write
		k := keyArg(key())
		cmds = append(cmds, [][]byte{[]byte("GET"), tbl, k})
		return append(cmds, [][]byte{[]byte("UPDATE"), tbl, k, patchOff, patch()})
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ipaload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "localhost:6389", "ipaserver address")
		connsArg = fs.String("conns", "16", "comma-separated connection counts to sweep")
		pipeline = fs.Int("pipeline", 32, "pipeline depth per connection (1 = unpipelined)")
		duration = fs.Duration("duration", 5*time.Second, "measurement window per sweep point")
		keys     = fs.Int("keys", 10000, "keyspace size (preloaded)")
		tuple    = fs.Int("tuple", 200, "tuple size in bytes")
		updates  = fs.Int("updates", 80, "percentage of operations that are UPDATEs (rest are GETs)")
		table    = fs.String("table", "load", "table name")
		ycsb     = fs.String("ycsb", "", "YCSB workload letter A-F (empty = the -updates mix over uniform keys)")
		quick    = fs.Bool("quick", false, "CI smoke mode: tiny sweep, sub-second windows")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON on stdout")
		outPath  = fs.String("out", "", "also write the JSON report to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "ipaload: %v\n", err)
		return 1
	}

	if *quick {
		*connsArg = "1,4,16,64"
		*duration = 500 * time.Millisecond
		*keys = 512
	}
	conns, err := parseConns(*connsArg)
	if err != nil {
		return fail(err)
	}
	if *pipeline < 1 {
		*pipeline = 1
	}

	if *updates < 0 || *updates > 100 {
		return fail(fmt.Errorf("bad -updates %d: want a percentage", *updates))
	}
	mix, dist := workload.YCSBMix{Read: 100 - *updates, Update: *updates}, "uniform"
	if *ycsb != "" {
		if len(*ycsb) != 1 {
			return fail(fmt.Errorf("bad -ycsb %q: want one letter A-F", *ycsb))
		}
		if mix, err = workload.YCSBMixFor((*ycsb)[0]); err != nil {
			return fail(err)
		}
		if dist = "zipfian"; strings.EqualFold(*ycsb, "D") {
			dist = "latest"
		}
	}

	if err := preload(*addr, *table, *tuple, *keys); err != nil {
		return fail(err)
	}

	rep := report{
		Benchmark: "server",
		Addr:      *addr,
		Table:     *table,
		Keys:      *keys,
		TupleSize: *tuple,
		UpdatePct: *updates,
		YCSB:      strings.ToUpper(*ycsb),
	}
	gen := newYCSBGen(mix, dist, *keys, *tuple)
	for _, n := range conns {
		p, err := measure(*addr, *table, *tuple, n, *pipeline, *duration, gen)
		if err != nil {
			return fail(err)
		}
		rep.Points = append(rep.Points, p)
		if !*jsonOut {
			fmt.Fprintf(stdout, "conns=%-4d pipeline=%-3d  %10.0f ops/s  (%d ops, %d conflicts, %d errors, %.2fs)\n",
				p.Conns, p.Pipeline, p.Throughput, p.Ops, p.Conflicts, p.Errors, p.DurationS)
		}
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	if *jsonOut {
		fmt.Fprintln(stdout, string(out))
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(out, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	return 0
}

func parseConns(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -conns element %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// preload creates the table (tolerating a live server that already has
// it) and pipelines the keyspace in.
func preload(addr, table string, tuple, keys int) error {
	c, err := ipaclient.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.CreateTable(table, tuple); err != nil && !ipaclient.IsCode(err, "EXISTS") {
		return err
	}
	value := make([]byte, tuple)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	const batch = 256
	for lo := 0; lo < keys; lo += batch {
		hi := lo + batch
		if hi > keys {
			hi = keys
		}
		cmds := make([][][]byte, 0, hi-lo)
		for k := lo; k < hi; k++ {
			cmds = append(cmds, [][]byte{
				[]byte("INSERT"), []byte(table), []byte(strconv.Itoa(k)), value,
			})
		}
		replies, err := c.Batch(cmds)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for _, r := range replies {
			if code := r.ErrorCode(); code != "" && code != "DUPKEY" {
				return fmt.Errorf("preload: server: %s", r.Str)
			}
		}
	}
	return nil
}

// measure runs one sweep point: n connections, each a goroutine with its
// own client, issuing pipelined batches of gen's mix until the window
// closes.
func measure(addr, table string, tuple, n, depth int, window time.Duration, gen *ycsbGen) (point, error) {
	clients := make([]*ipaclient.Client, n)
	for i := range clients {
		c, err := ipaclient.Dial(addr)
		if err != nil {
			return point{}, err
		}
		defer c.Close()
		clients[i] = c
	}

	var (
		ops       atomic.Uint64
		conflicts atomic.Uint64
		errs      atomic.Uint64
		stop      atomic.Bool
		wg        sync.WaitGroup
		firstErr  atomic.Value
	)
	// The tail patch lands at the end of the tuple: the engine's
	// in-place-append sweet spot.
	patchOff := tuple - 8
	if patchOff < 0 {
		patchOff = 0
	}

	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *ipaclient.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
			offArg := []byte(strconv.Itoa(patchOff))
			tbl := []byte(table)
			for !stop.Load() {
				cmds := make([][][]byte, 0, depth+1)
				for len(cmds) < depth {
					cmds = gen.gen(cmds, rng, tbl, offArg)
				}
				replies, err := c.Batch(cmds)
				if err != nil {
					if !stop.Load() {
						firstErr.CompareAndSwap(nil, error(fmt.Errorf("conn %d: %w", i, err)))
					}
					return
				}
				for _, r := range replies {
					switch code := r.ErrorCode(); {
					case code == "":
						ops.Add(1)
					case code == "CONFLICT":
						conflicts.Add(1)
					case code == "NOTFOUND" && gen.mix.Insert > 0:
						// YCSB read-latest: a read may chase a key whose
						// INSERT is still in flight on another connection.
						// YCSB counts the miss as a completed read.
						ops.Add(1)
					default:
						errs.Add(1)
					}
				}
			}
		}(i, c)
	}
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	if e := firstErr.Load(); e != nil {
		return point{}, e.(error)
	}
	total := ops.Load() + conflicts.Load()
	return point{
		Conns:      n,
		Pipeline:   depth,
		Ops:        ops.Load(),
		Conflicts:  conflicts.Load(),
		Errors:     errs.Load(),
		DurationS:  elapsed.Seconds(),
		Throughput: float64(total) / elapsed.Seconds(),
	}, nil
}
