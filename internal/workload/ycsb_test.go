package workload

import (
	"math"
	"math/rand"
	"testing"

	"ipa"
)

// TestZipfianHotSetMass checks the sampler against its own theory: the
// empirical probability mass of the k most popular ranks must match
// zeta(k)/zeta(n) within sampling tolerance.
func TestZipfianHotSetMass(t *testing.T) {
	const (
		n       = 10000
		samples = 200000
	)
	z := NewZipfian(n, YCSBTheta)
	r := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[z.Next(r)]++
	}
	for _, k := range []int64{1, 10, 100, 1000} {
		hot := 0
		for i := int64(0); i < k; i++ {
			hot += counts[i]
		}
		got := float64(hot) / samples
		want := z.HotSetMass(k)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("top-%d mass = %.4f, want %.4f ± 0.03", k, got, want)
		}
	}
	// Sanity on the theory itself: with theta 0.99 the hot set is heavy.
	if m := z.HotSetMass(100); m < 0.4 {
		t.Errorf("HotSetMass(100) = %.3f, suspiciously light for theta %.2f", m, YCSBTheta)
	}
}

// TestZipfianDeterminism: a fixed seed yields a fixed rank sequence.
func TestZipfianDeterminism(t *testing.T) {
	z := NewZipfian(5000, YCSBTheta)
	a := rand.New(rand.NewSource(99))
	b := rand.New(rand.NewSource(99))
	for i := 0; i < 10000; i++ {
		if x, y := z.Next(a), z.Next(b); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
}

// TestLatestDistributionHotSet: the latest distribution concentrates its
// mass on the most recently inserted keys.
func TestLatestDistributionHotSet(t *testing.T) {
	cfg := YCSBConfig{Letter: 'D', Records: 10000}
	w, err := NewYCSB(cfg)
	if err != nil {
		t.Fatalf("NewYCSB: %v", err)
	}
	w.maxKey = int64(cfg.Records) - 1 // as after Load
	r := rand.New(rand.NewSource(2))
	const samples = 100000
	const k = 100
	hot := 0
	for i := 0; i < samples; i++ {
		key := w.nextKey(r)
		if key > w.maxKey-k {
			hot++
		}
	}
	got := float64(hot) / samples
	want := w.zipf.HotSetMass(k)
	if math.Abs(got-want) > 0.03 {
		t.Errorf("latest top-%d mass = %.4f, want %.4f ± 0.03", k, got, want)
	}
}

// TestUniformDistribution: the uniform override really is uniform (no
// sampled key takes a zipfian-sized share).
func TestUniformDistribution(t *testing.T) {
	cfg := YCSBConfig{Letter: 'C', Records: 1000, Distribution: "uniform"}
	w, err := NewYCSB(cfg)
	if err != nil {
		t.Fatalf("NewYCSB: %v", err)
	}
	w.maxKey = int64(cfg.Records) - 1
	r := rand.New(rand.NewSource(3))
	counts := make(map[int64]int)
	const samples = 100000
	for i := 0; i < samples; i++ {
		counts[w.nextKey(r)]++
	}
	for key, c := range counts {
		if share := float64(c) / samples; share > 0.01 {
			t.Errorf("uniform key %d drew %.3f of the mass", key, share)
		}
	}
	if len(counts) < 900 {
		t.Errorf("uniform sampler only touched %d of 1000 keys", len(counts))
	}
}

// TestYCSBMixes: the drawn operation mix of every letter matches its spec
// within sampling tolerance, and the specs are the canonical ones.
func TestYCSBMixes(t *testing.T) {
	want := map[byte]YCSBMix{
		'A': {Read: 50, Update: 50},
		'B': {Read: 95, Update: 5},
		'C': {Read: 100},
		'D': {Read: 95, Insert: 5},
		'E': {Scan: 95, Insert: 5},
		'F': {Read: 50, RMW: 50},
	}
	for letter, spec := range want {
		mix, err := YCSBMixFor(letter)
		if err != nil {
			t.Fatalf("YCSBMixFor(%c): %v", letter, err)
		}
		if mix != spec {
			t.Fatalf("mix %c = %+v, want %+v", letter, mix, spec)
		}
		r := rand.New(rand.NewSource(int64(letter)))
		const samples = 100000
		counts := map[YCSBOp]int{}
		for i := 0; i < samples; i++ {
			counts[mix.Pick(r)]++
		}
		check := func(op YCSBOp, pct int) {
			got := float64(counts[op]) / samples * 100
			if math.Abs(got-float64(pct)) > 1.0 {
				t.Errorf("%c: %s share %.2f%%, want %d%% ± 1", letter, op, got, pct)
			}
		}
		check(YCSBRead, spec.Read)
		check(YCSBUpdate, spec.Update)
		check(YCSBInsert, spec.Insert)
		check(YCSBScan, spec.Scan)
		check(YCSBRMW, spec.RMW)
	}
	if _, err := YCSBMixFor('Z'); err == nil {
		t.Error("YCSBMixFor('Z') succeeded, want error")
	}
}

// TestYCSBDeterminism: the same seed drives the same (op, key) request
// stream.
func TestYCSBDeterminism(t *testing.T) {
	mk := func() *YCSB {
		cfg := YCSBConfig{Letter: 'A', Records: 5000}
		w, err := NewYCSB(cfg)
		if err != nil {
			t.Fatalf("NewYCSB: %v", err)
		}
		w.maxKey = int64(cfg.Records) - 1
		return w
	}
	w1, w2 := mk(), mk()
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		op1, op2 := w1.mix.Pick(r1), w2.mix.Pick(r2)
		if op1 != op2 {
			t.Fatalf("op %d diverged: %s vs %s", i, op1, op2)
		}
		if k1, k2 := w1.nextKey(r1), w2.nextKey(r2); k1 != k2 {
			t.Fatalf("key %d diverged: %d vs %d", i, k1, k2)
		}
	}
}

// TestYCSBRunAllLetters runs every workload letter briefly against the
// engine, exercising each operation class end to end (scans of E, inserts
// of D, read-modify-writes of F).
func TestYCSBRunAllLetters(t *testing.T) {
	for _, letter := range []byte{'A', 'B', 'C', 'D', 'E', 'F'} {
		t.Run(string(letter), func(t *testing.T) {
			db := testDB(t, ipa.IPANativeFlash)
			defer db.Close()
			cfg := YCSBConfig{Letter: letter, Records: 2000, MaxScanLength: 20}
			w, err := NewYCSB(cfg)
			if err != nil {
				t.Fatalf("NewYCSB: %v", err)
			}
			if err := w.Load(db); err != nil {
				t.Fatalf("Load: %v", err)
			}
			res, err := Run(db, w, RunOptions{MaxOps: 400, Seed: 5})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Committed != 400 {
				t.Fatalf("committed %d of 400", res.Committed)
			}
			if got := w.table.Count(); got < uint64(cfg.Records) {
				t.Fatalf("table count %d < preload %d", got, cfg.Records)
			}
			if err := db.VerifyIntegrity(); err != nil {
				t.Fatalf("VerifyIntegrity: %v", err)
			}
		})
	}
}
