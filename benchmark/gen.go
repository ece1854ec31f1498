package main

import (
	"encoding/binary"
	"math"
	"strconv"
)

// Row layout: tupleSize bytes, the last patchLen of them the field every
// update overwrites.
const (
	tupleSize = 120
	patchOff  = 112
	patchLen  = 8
)

// rng is splitmix64: tiny, fast, and — unlike math/rand — guaranteed to
// produce the same stream on every Go release, which the exact-repeat
// guarantee of the count metrics depends on.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with the YCSB zipfian generator (Gray et al.,
// "Quickly generating billion-record synthetic databases").
type zipf struct {
	n                 float64
	theta, alpha      float64
	zetan, eta, half2 float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.half2 = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half2 {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}

// fnv64 is FNV-1a over the eight bytes of v; it scatters the zipfian ranks
// over the keyspace so the hot keys do not share pages.
func fnv64(v uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return h
}

// op is one generated operation: a snapshot get, or a one-row update
// transaction writing patch at patchOff.
type op struct {
	key    int64
	patch  uint64
	update bool
}

// generator produces the operation stream of one run from its seed.
type generator struct {
	r        rng
	z        *zipf
	rows     uint64
	getShare float64
	chunk    []op

	// Wire rendering: commands of the current chunk as argument slices
	// pointing into arena, so the timed loop neither formats nor allocates.
	wire  bool
	cmds  [][][]byte
	args  [][]byte
	arena []byte
}

var (
	argGet        = []byte("GET")
	argCheckpoint = []byte("CHECKPOINT")
	argUpdate     = []byte("UPDATE")
	argTable      = []byte(tableName)
	argOffset     = []byte(strconv.Itoa(patchOff))
)

// newGenerator returns a generator that produces up to chunkOps operations
// at a time: one slice of the run. Chunks are filled between timed
// stretches, so generation never sits inside one.
func newGenerator(seed uint64, rows int, getShare float64, wire bool, chunkOps int) *generator {
	g := &generator{
		r:        rng{s: seed},
		z:        newZipf(rows, 0.99),
		rows:     uint64(rows),
		getShare: getShare,
		chunk:    make([]op, 0, chunkOps),
		wire:     wire,
	}
	if wire {
		g.cmds = make([][][]byte, 0, chunkOps)
		g.args = make([][]byte, 0, chunkOps*5)
		g.arena = make([]byte, 0, chunkOps*(20+patchLen))
	}
	return g
}

// fill generates the next n operations into g.chunk.
func (g *generator) fill(n int) {
	g.chunk = g.chunk[:0]
	g.cmds, g.args, g.arena = g.cmds[:0], g.args[:0], g.arena[:0]
	for i := 0; i < n; i++ {
		o := op{
			key:    int64(fnv64(uint64(g.z.rank(g.r.float()))) % g.rows),
			update: g.r.float() >= g.getShare,
		}
		if o.update {
			o.patch = g.r.next()
		}
		g.chunk = append(g.chunk, o)
		if g.wire {
			g.render(o)
		}
	}
}

func (g *generator) render(o op) {
	first := len(g.args)
	start := len(g.arena)
	g.arena = strconv.AppendInt(g.arena, o.key, 10)
	key := g.arena[start:len(g.arena):len(g.arena)]
	if o.update {
		start = len(g.arena)
		g.arena = binary.LittleEndian.AppendUint64(g.arena, o.patch)
		g.args = append(g.args, argUpdate, argTable, key, argOffset, g.arena[start:len(g.arena):len(g.arena)])
	} else {
		g.args = append(g.args, argGet, argTable, key)
	}
	g.cmds = append(g.cmds, g.args[first:len(g.args):len(g.args)])
}

// rowImage writes the initial content of the row stored under key: bytes
// derived from the key, so verification needs no copy of the table.
func rowImage(dst []byte, key int64) {
	h := fnv64(uint64(key) ^ 0x5bd1e995)
	for i := 0; i < tupleSize; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], h)
		h = h*0x9e3779b97f4a7c15 + 1
	}
}

// initialPatch is the value rowImage leaves in the patch field.
func initialPatch(key int64) uint64 {
	var row [tupleSize]byte
	rowImage(row[:], key)
	return binary.LittleEndian.Uint64(row[patchOff:])
}
