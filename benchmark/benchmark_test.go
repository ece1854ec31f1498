package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// contract mirrors the keys of BENCHMARK.json the tests check.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smallRun runs a workload at 1/50 of its operation counts on a table, pool
// and device an eighth of the real ones: no timing is asserted, so one
// set-up and one reopen are enough.
func smallRun(t *testing.T, name string, seed uint64, seconds int, trace bool) *outcome {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	out, err := run(runOpts{w: w.scaled(50), seed: seed, seconds: seconds, trace: trace, setups: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if out.r.failed != 0 || out.integrityErr != nil {
		t.Fatalf("%s: %d of %d operations and read-backs failed, integrity: %v", name, out.r.failed, out.r.attempted, out.integrityErr)
	}
	return out
}

// TestExactRepeat is the guard the count metrics rest on: one seed twice
// gives every device-clock and count metric to the last digit, another
// seed gives other inputs.
func TestExactRepeat(t *testing.T) {
	seconds := readContract(t).RunSeconds
	for _, w := range workloads {
		first := smallRun(t, w.name, 7, seconds, false).endToEnd()
		again := smallRun(t, w.name, 7, seconds, false).endToEnd()
		other := smallRun(t, w.name, 8, seconds, false).endToEnd()
		for _, m := range endToEnd {
			v, ok := first[m.name]
			if !ok || v == 0 {
				t.Errorf("%s: %s = %v, want a value that is never 0", w.name, m.name, v)
			}
			if m.exact() && again[m.name] != v {
				t.Errorf("%s: %s = %v, then %v with the same seed", w.name, m.name, v, again[m.name])
			}
		}
		if other["device_tps"] == first["device_tps"] && other["write_amp"] == first["write_amp"] {
			t.Errorf("%s: seeds 7 and 8 give the same device_tps and write_amp", w.name)
		}
	}
}

// TestContract keeps BENCHMARK.json and the command in step: the workload
// names, and every metric with its unit, direction and bound, are the ones
// the command produces, on every workload, traced and untraced. On the way
// it checks, on identical inputs, the direction the paper claims: in-place
// appends program less and finish sooner on the device clock than
// whole-page writes, and a resident table never reads Flash.
func TestContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, listed []contractMetric, defs []metric) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(listed), len(defs))
		}
		for i, m := range defs {
			if got := listed[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command %+v", kind, i, got, m)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)

	probes, err := runProbes()
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers := map[string]map[string]float64{}, map[string]map[string]float64{}
	for _, w := range workloads {
		out := smallRun(t, w.name, 7, c.RunSeconds, true)
		values, rows := out.perLayer(probes)
		e2e[w.name], layers[w.name] = out.endToEnd(), values
		if len(values) != len(perLayer) {
			t.Errorf("%s: %d per-layer values for %d declared metrics", w.name, len(values), len(perLayer))
		}
		for _, m := range perLayer {
			if _, ok := values[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.name)
			}
		}
		if len(rows) == 0 || len(out.r.tr.spans) == 0 {
			t.Errorf("%s: traced run gave %d budget rows and %d spans", w.name, len(rows), len(out.r.tr.spans))
		}
	}

	ipa, trad := e2e["flash_rw"], e2e["flash_trad"]
	if !(ipa["write_amp"] < trad["write_amp"] && ipa["device_tps"] > trad["device_tps"]) {
		t.Errorf("flash_rw write_amp %v, device_tps %v; flash_trad %v, %v", ipa["write_amp"], ipa["device_tps"], trad["write_amp"], trad["device_tps"])
	}
	if in, out := layers["flash_rw"]["storage.inplace_share"], layers["flash_trad"]["storage.inplace_share"]; in <= 0 || out != 0 {
		t.Errorf("storage.inplace_share: flash_rw %v, flash_trad %v", in, out)
	}
	if mem := layers["mem_rw"]; mem["buffer.hit_rate"] != 1 || mem["flashdev.page_reads_per_kop"] != 0 {
		t.Errorf("mem_rw: buffer.hit_rate %v, flashdev.page_reads_per_kop %v", mem["buffer.hit_rate"], mem["flashdev.page_reads_per_kop"])
	}
}

// TestQuartiles pins iqr to Python's statistics.quantiles(vs, n=4), which
// the acceptance check of the benchmark uses.
func TestQuartiles(t *testing.T) {
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqr(vs); got != 5.5 { // quantiles: 2.75, 5.5, 8.25
		t.Errorf("iqr = %v, want 5.5", got)
	}
	if got := median(vs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

// TestHistogram checks bucket placement and interpolation at the edges the
// latency figures depend on.
func TestHistogram(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.97 || got > want*1.03 {
			t.Errorf("quantile(%v) = %v, want within 3%% of %v", q, got, want)
		}
	}
	for _, v := range []uint64{0, 31, 32, 33, 1 << 20, 1<<20 + 12345} {
		if lo, hi := histBounds(histBucket(v)); v < lo || v >= hi {
			t.Errorf("value %d filed under [%d, %d)", v, lo, hi)
		}
	}
}
