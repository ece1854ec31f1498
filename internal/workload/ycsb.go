package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ipa"
)

// The YCSB core workloads (Cooper et al., SoCC'10). Each letter is a fixed
// operation mix over a single keyed table:
//
//	A  update-heavy   50% read / 50% update           zipfian
//	B  read-mostly    95% read /  5% update           zipfian
//	C  read-only     100% read                        zipfian
//	D  read-latest    95% read /  5% insert           latest
//	E  short-scans    95% scan /  5% insert           zipfian start keys
//	F  read-mod-write 50% read / 50% read-modify-write zipfian
//
// Updates patch a few bytes at the tail of the tuple (YCSBUpdateBytes), the
// access pattern the paper's in-place appends absorb: a skewed stream of
// tiny modifications against pages that keep coming back dirty.

// YCSBOp is one operation class of a YCSB mix.
type YCSBOp int

// Operation classes.
const (
	YCSBRead YCSBOp = iota
	YCSBUpdate
	YCSBInsert
	YCSBScan
	YCSBRMW
)

// String names the operation class.
func (o YCSBOp) String() string {
	switch o {
	case YCSBRead:
		return "read"
	case YCSBUpdate:
		return "update"
	case YCSBInsert:
		return "insert"
	case YCSBScan:
		return "scan"
	case YCSBRMW:
		return "rmw"
	default:
		return fmt.Sprintf("YCSBOp(%d)", int(o))
	}
}

// YCSBMix is the operation mix of one workload letter, in percent. The
// fields sum to 100.
type YCSBMix struct {
	Read, Update, Insert, Scan, RMW int
}

// YCSBMixFor returns the canonical mix of a workload letter ('A'..'F').
func YCSBMixFor(letter byte) (YCSBMix, error) {
	switch letter {
	case 'A', 'a':
		return YCSBMix{Read: 50, Update: 50}, nil
	case 'B', 'b':
		return YCSBMix{Read: 95, Update: 5}, nil
	case 'C', 'c':
		return YCSBMix{Read: 100}, nil
	case 'D', 'd':
		return YCSBMix{Read: 95, Insert: 5}, nil
	case 'E', 'e':
		return YCSBMix{Scan: 95, Insert: 5}, nil
	case 'F', 'f':
		return YCSBMix{Read: 50, RMW: 50}, nil
	default:
		return YCSBMix{}, fmt.Errorf("workload: unknown YCSB letter %q", letter)
	}
}

// Pick draws one operation class from the mix.
func (m YCSBMix) Pick(r *rand.Rand) YCSBOp {
	p := r.Intn(100)
	if p -= m.Read; p < 0 {
		return YCSBRead
	}
	if p -= m.Update; p < 0 {
		return YCSBUpdate
	}
	if p -= m.Insert; p < 0 {
		return YCSBInsert
	}
	if p -= m.Scan; p < 0 {
		return YCSBScan
	}
	return YCSBRMW
}

// Zipfian draws ranks in [0, N) with P(rank k) ∝ 1/(k+1)^theta, using the
// rejection-free transform of Gray et al. ("Quickly generating
// billion-record synthetic databases") that YCSB's generator uses. Rank 0
// is the most popular item. The struct is immutable after construction and
// safe for concurrent use; all randomness comes from the caller's
// *rand.Rand, so a fixed seed gives a fixed sequence.
type Zipfian struct {
	n               int64
	theta           float64
	alpha, eta      float64
	zetan, zeta2    float64
	halfPowTheta    float64
	cumulativeCache []float64 // zeta(k)/zeta(n) for small k (hot-set mass)
}

// YCSBTheta is the skew constant of YCSB's zipfian generator.
const YCSBTheta = 0.99

// NewZipfian builds a zipfian sampler over [0, n) with the given theta
// (0 < theta < 1; YCSBTheta is the YCSB default).
func NewZipfian(n int64, theta float64) *Zipfian {
	if n < 1 {
		n = 1
	}
	z := &Zipfian{n: n, theta: theta}
	z.zeta2 = zetaSum(2, theta)
	z.zetan = zetaSum(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	const cache = 64
	k := int64(cache)
	if k > n {
		k = n
	}
	z.cumulativeCache = make([]float64, k)
	sum := 0.0
	for i := int64(0); i < k; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cumulativeCache[i] = sum / z.zetan
	}
	return z
}

// zetaSum computes zeta(n, theta) = sum_{i=1..n} i^-theta.
func zetaSum(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// N returns the size of the rank space.
func (z *Zipfian) N() int64 { return z.n }

// Next draws a rank in [0, N); rank 0 is the hottest.
func (z *Zipfian) Next(r *rand.Rand) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	k := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// HotSetMass returns the theoretical probability mass of the k most
// popular ranks: zeta(k)/zeta(n). Property tests compare the sampled mass
// against it.
func (z *Zipfian) HotSetMass(k int64) float64 {
	if k <= 0 {
		return 0
	}
	if k >= z.n {
		return 1
	}
	if int(k) <= len(z.cumulativeCache) {
		return z.cumulativeCache[k-1]
	}
	return zetaSum(k, z.theta) / z.zetan
}

// ScrambleKey spreads a zipfian rank across the keyspace with an FNV-1a
// hash (YCSB's scrambled-zipfian), so the hot set is not one contiguous
// key range sharing heap pages. Collisions merely merge two ranks onto one
// key, exactly as in YCSB.
func ScrambleKey(rank, n int64) int64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	v := uint64(rank)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	k := int64(h % uint64(n))
	if k < 0 {
		k = -k
	}
	return k
}

// The YCSB tuple: YCSBValueSize bytes, of which updates and
// read-modify-writes patch the last YCSBUpdateBytes.
const (
	YCSBValueSize   = 120
	YCSBUpdateBytes = 8
)

// YCSBConfig configures one YCSB workload instance.
type YCSBConfig struct {
	// Letter selects the mix: 'A'..'F' (default 'A').
	Letter byte
	// Records is the number of preloaded rows (the insert phase; default
	// 10000).
	Records int
	// Distribution overrides the request distribution: "zipfian",
	// "latest" or "uniform". Empty selects the letter's default (latest
	// for D, zipfian otherwise).
	Distribution string
	// MaxScanLength bounds workload E scans (default 100).
	MaxScanLength int
	// Seed drives the load-phase generator.
	Seed int64
}

func (c YCSBConfig) withDefaults() YCSBConfig {
	if c.Letter == 0 {
		c.Letter = 'A'
	}
	if c.Letter >= 'a' && c.Letter <= 'z' {
		c.Letter -= 'a' - 'A'
	}
	if c.Records <= 0 {
		c.Records = 10000
	}
	if c.MaxScanLength <= 0 {
		c.MaxScanLength = 100
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Distribution == "" {
		if c.Letter == 'D' {
			c.Distribution = "latest"
		} else {
			c.Distribution = "zipfian"
		}
	}
	return c
}

// YCSB is one YCSB core workload (a letter plus a key distribution)
// against a single table.
type YCSB struct {
	cfg   YCSBConfig
	mix   YCSBMix
	table *ipa.Table
	zipf  *Zipfian
	// maxKey is the highest key inserted so far (keys are dense 0..maxKey);
	// the latest distribution reads near it, inserts extend it. RunOne is
	// single-threaded per driver (like every other driver here), so a plain
	// field suffices.
	maxKey int64
}

// NewYCSB creates a YCSB driver; the configuration letter must be 'A'..'F'.
func NewYCSB(cfg YCSBConfig) (*YCSB, error) {
	cfg = cfg.withDefaults()
	mix, err := YCSBMixFor(cfg.Letter)
	if err != nil {
		return nil, err
	}
	switch cfg.Distribution {
	case "zipfian", "latest", "uniform":
	default:
		return nil, fmt.Errorf("workload: unknown YCSB distribution %q", cfg.Distribution)
	}
	return &YCSB{
		cfg:  cfg,
		mix:  mix,
		zipf: NewZipfian(int64(cfg.Records), YCSBTheta),
	}, nil
}

// Name implements Workload.
func (w *YCSB) Name() string { return "ycsb-" + string(w.cfg.Letter+'a'-'A') }

// Config returns the effective configuration.
func (w *YCSB) Config() YCSBConfig { return w.cfg }

// Load implements Workload: it creates the table and inserts the dense
// keyspace [0, Records).
func (w *YCSB) Load(db *ipa.DB) error {
	var err error
	if w.table, err = db.CreateTable("ycsb", YCSBValueSize); err != nil {
		return err
	}
	row := make([]byte, YCSBValueSize)
	ld := NewLoader(db)
	for k := 0; k < w.cfg.Records; k++ {
		fill(row, int64(k)+w.cfg.Seed)
		putInt64(row, 0, int64(k))
		if err := ld.Insert(w.table, int64(k), row); err != nil {
			return fmt.Errorf("ycsb load: %w", err)
		}
	}
	w.maxKey = int64(w.cfg.Records) - 1
	return finishLoad(db, ld)
}

// YCSBKey draws a request key from the dense keyspace [0, n) under a YCSB
// request distribution: "uniform", "latest" (zipfian ranks counted down
// from the newest key, n-1) or otherwise "zipfian", scrambled across the
// keyspace. zipf draws the ranks of the two skewed distributions.
func YCSBKey(r *rand.Rand, dist string, zipf *Zipfian, n int64) int64 {
	switch dist {
	case "uniform":
		return randInt64(r, n)
	case "latest":
		return n - 1 - min(zipf.Next(r), n-1)
	default:
		return ScrambleKey(zipf.Next(r), n)
	}
}

// nextKey draws a key from the configured request distribution.
func (w *YCSB) nextKey(r *rand.Rand) int64 {
	return YCSBKey(r, w.cfg.Distribution, w.zipf, w.maxKey+1)
}

// RunOne implements Workload: one YCSB operation as one transaction.
func (w *YCSB) RunOne(db *ipa.DB, r *rand.Rand) (bool, error) {
	op := w.mix.Pick(r)
	switch op {
	case YCSBRead:
		key := w.nextKey(r)
		if _, err := w.table.Get(key); err != nil {
			return false, fmt.Errorf("ycsb read %d: %w", key, err)
		}
		return true, nil

	case YCSBScan:
		// Zipfian start key, uniform length in [1, MaxScanLength]: the
		// snapshot range read of workload E.
		start := w.nextKey(r)
		length := int64(1 + r.Intn(w.cfg.MaxScanLength))
		rows := 0
		err := w.table.ScanRange(start, start+length, func(int64, []byte) bool {
			rows++
			return true
		})
		if err != nil {
			return false, fmt.Errorf("ycsb scan [%d,%d): %w", start, start+length, err)
		}
		return true, nil

	case YCSBInsert:
		key := w.maxKey + 1
		row := make([]byte, YCSBValueSize)
		fill(row, key+w.cfg.Seed)
		putInt64(row, 0, key)
		ok, err := attempt(db, func(tx *ipa.Tx) error { return tx.Insert(w.table, key, row) })
		if ok {
			w.maxKey = key
		}
		return ok, err

	case YCSBUpdate:
		key := w.nextKey(r)
		patch := make([]byte, YCSBUpdateBytes)
		fill(patch, int64(r.Int63()))
		return attempt(db, func(tx *ipa.Tx) error {
			return tx.UpdateAt(w.table, key, YCSBValueSize-YCSBUpdateBytes, patch)
		})

	default: // YCSBRMW
		key := w.nextKey(r)
		return attempt(db, func(tx *ipa.Tx) error {
			row, err := tx.Get(w.table, key)
			if err != nil {
				return err
			}
			// Derive the patch from the read (the "modify" of read-modify-
			// write): bump a counter in the tail.
			off := YCSBValueSize - YCSBUpdateBytes
			patch := make([]byte, YCSBUpdateBytes)
			copy(patch, row[off:])
			patch[0]++
			return tx.UpdateAt(w.table, key, off, patch)
		})
	}
}
