package server

import (
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"ipa"
)

// TestEveryLayerCounterReachesEverySurface pins the one declaration of a
// counter: a field of a layer's stats struct, which ipa.Stats embeds. Every
// such field must be selectable on ipa.Stats by its own name — a promoted
// field that another embedded struct, or Stats itself, also declares is
// ambiguous or shadowed, and encoding/json silently drops it — must be a
// key of the STATS JSON reply, and must read 0 right after ResetStats
// unless its tag says it is a gauge or a maximum.
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

	stats := reflect.TypeOf(ipa.Stats{})
	counters := 0
	var walk func(typ reflect.Type, index []int)
	walk = func(typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f, at := typ.Field(i), append(slices.Clip(index), i)
			switch {
			case f.Anonymous:
				walk(f.Type, at)
				continue
			case len(index) == 0:
				continue // declared by Stats itself, not by a layer
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
	walk(stats, nil)
	if counters < 40 {
		t.Fatalf("found %d layer counters in ipa.Stats, want the layers' structs embedded", counters)
	}
}

// zero reports whether a decoded JSON number, or every element of an
// array of them, is 0.
func zero(v any) bool {
	if a, ok := v.([]any); ok {
		return !slices.ContainsFunc(a, func(e any) bool { return !zero(e) })
	}
	return v == 0.0
}
