package server

import (
	"cmp"
	"encoding/json"
	"net/http"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ipa"
	"ipa/internal/stat"
)

// TestEveryLayerCounterReachesEverySurface pins the one declaration of a
// counter: a field of a layer's stats struct, which ipa.Stats embeds. Every
// such field must be selectable on ipa.Stats by its own name — a promoted
// field that another embedded struct, or Stats itself, also declares is
// ambiguous or shadowed, and encoding/json silently drops it — must be a
// key of the STATS JSON reply, and must read 0 right after ResetStats
// unless its tag says it is a gauge or a maximum. Every numeric field of
// ipa.Stats and ipa.ChipStat, layer counter or not, must also reach the
// STATS text as Name=value and /metrics as the family its name derives.
func TestEveryLayerCounterReachesEverySurface(t *testing.T) {
	srv, db := newTestServer(t)
	c := dial(t, srv)
	do(t, c, "CREATE", "t", "64")
	for k := 0; k < 200; k++ {
		do(t, c, "INSERT", "t", strconv.Itoa(k), "row")
	}
	do(t, c, "CHECKPOINT")
	db.ResetStats()
	var reply map[string]any
	if err := json.Unmarshal(do(t, c, "STATS", "JSON").Bulk, &reply); err != nil {
		t.Fatal(err)
	}
	text := string(do(t, c, "STATS").Bulk)
	families := parseExposition(t, scrapeMetrics(t, srv))
	// The family each field renders as, keyed by label and name.
	family := make(map[string]string)
	stat.Each(db.Stats(), func(f stat.Field) { family[f.Label+"."+f.Name] = metricName("ipa_", f) })
	rendered := func(label string, f reflect.StructField) {
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64, reflect.Array:
		default:
			return
		}
		if f.Tag.Get("stat") == "-" {
			return
		}
		if !strings.Contains(text, " "+f.Name+"=") {
			t.Errorf("STATS text has no %s=", f.Name)
		}
		if name, ok := family[label+"."+f.Name]; !ok || families[name] == nil {
			t.Errorf("/metrics has no family for %s (%q)", f.Name, name)
		}
	}

	stats := reflect.TypeOf(ipa.Stats{})
	counters := 0
	var walk func(typ reflect.Type, label string, index []int)
	walk = func(typ reflect.Type, label string, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f, at := typ.Field(i), append(slices.Clip(index), i)
			switch {
			case f.Anonymous:
				walk(f.Type, label, at)
				continue
			case f.Name == "ChipStats":
				walk(f.Type.Elem(), f.Tag.Get("label"), nil)
				continue
			}
			rendered(label, f)
			if len(index) == 0 || label != "" {
				continue // declared by Stats or ChipStat itself, not by a layer
			}
			counters++
			if promoted, ok := stats.FieldByName(f.Name); !ok || !slices.Equal(promoted.Index, at) {
				t.Errorf("%s.%s is not selectable as ipa.Stats.%s", typ, f.Name, f.Name)
				continue
			}
			v, ok := reply[f.Name]
			if !ok {
				t.Errorf("STATS JSON has no key %s", f.Name)
				continue
			}
			if tag := f.Tag.Get("stat"); tag != "gauge" && tag != "max" && !zero(v) {
				t.Errorf("%s = %v right after ResetStats, want 0", f.Name, v)
			}
		}
	}
	walk(stats, "", nil)
	if counters < 40 {
		t.Fatalf("found %d layer counters in ipa.Stats, want the layers' structs embedded", counters)
	}
}

// TestDashboardReadsOnlyServedFields holds the embedded dashboard to the
// /stats.json it polls: every field the page reads — eng.X and a chip's
// c.X from the engine snapshot, ops.x, d.server.x and d.x — must be a key
// of a live document.
func TestDashboardReadsOnlyServedFields(t *testing.T) {
	srv, _ := newTestServer(t)
	populateMetrics(t, srv)
	var doc map[string]any
	if err := json.Unmarshal(mustMarshal(t, srv.statsDoc()), &doc); err != nil {
		t.Fatal(err)
	}
	eng := doc["engine"].(map[string]any)
	objects := map[string]map[string]any{
		"eng": eng, "c": eng["ChipStats"].([]any)[0].(map[string]any),
		"ops": doc["ops"].(map[string]any), "d.server": doc["server"].(map[string]any), "d": doc,
	}
	refs := regexp.MustCompile(`\b(?:(eng|c)\.([A-Z]\w*)|(ops|d\.server|d)\.([a-z_]+))`).
		FindAllStringSubmatch(string(dashboardHTML), -1)
	if len(refs) < 20 {
		t.Fatalf("found %d field references in the dashboard, want its eng/ops/d/c reads", len(refs))
	}
	for _, m := range refs {
		obj, key := cmp.Or(m[1], m[3]), cmp.Or(m[2], m[4])
		if _, ok := objects[obj][key]; !ok {
			t.Errorf("dashboard reads %s, which /stats.json does not serve", m[0])
		}
	}
}

// TestScrapesTakeOpsReadings: every /stats.json scrape takes an ops
// reading, so the first answers with the Stats window and the second with
// the span since the first — the commits in between, a wall width above 0.
func TestScrapesTakeOpsReadings(t *testing.T) {
	srv, _ := newTestServer(t)
	scrape := func() ipa.OpsStats {
		t.Helper()
		resp, err := http.Get("http://" + srv.HTTPAddr().String() + "/stats.json")
		if err != nil {
			t.Fatalf("GET /stats.json: %v", err)
		}
		defer resp.Body.Close()
		var doc struct {
			Ops ipa.OpsStats `json:"ops"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decode /stats.json: %v", err)
		}
		return doc.Ops
	}
	if o := scrape(); o.Samples != 1 || o.WindowWall != 0 {
		t.Fatalf("first scrape: %d samples, window wall %v; want 1 and the Stats window", o.Samples, o.WindowWall)
	}
	populateMetrics(t, srv)
	if o := scrape(); o.Samples != 2 || o.WindowWall <= 0 || o.WindowTPS <= 0 {
		t.Fatalf("second scrape: %d samples, window wall %v, window tps %v; want 2, > 0, > 0",
			o.Samples, o.WindowWall, o.WindowTPS)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// zero reports whether a decoded JSON number, or every element of an
// array of them, is 0.
func zero(v any) bool {
	if a, ok := v.([]any); ok {
		return !slices.ContainsFunc(a, func(e any) bool { return !zero(e) })
	}
	return v == 0.0
}
