// Package stat copies, sums, subtracts and walks counter structs. A layer
// declares its counters once, as the uint64 fields of one exported struct,
// keeps a value of it as its live counter set and bumps the fields in place
// with sync/atomic. Load copies such a set, Add sums two copies (the parts
// of a sharded or partitioned layer), Sub takes the window between two and
// Each hands every field of a copy, with its name and tags, to a renderer.
//
// A field tagged `stat:"gauge"` is a level, not a count, one tagged
// `stat:"max"` a high-water mark and one tagged `stat:"lifetime"` a count
// no window restarts: Sub carries all three through from the later copy
// instead of subtracting, and Add keeps the larger maximum. All four walk
// the fields Each yields; Add and Sub copy any other field from the first
// operand, and neither takes a struct holding a slice.
//
// A Wait is a latency distribution kept the same way: a set of its own,
// bumped in place by Observe, and copied, merged and windowed by Load, Add
// and Sub like any other.
//
// A live set assumes a 64-bit platform: atomic.AddUint64 on a plain field
// needs the 8-byte alignment that 32-bit platforms guarantee only for the
// first word of an allocation.
package stat

import (
	"cmp"
	"math/bits"
	"reflect"
	"sync/atomic"
	"time"
)

// Load returns a copy of *p whose uint64 fields are read atomically, so it
// may run while other goroutines bump them. A live set has no other fields.
func Load[T any](p *T) T {
	var out T
	walk(reflect.ValueOf(&out).Elem(), reflect.ValueOf(p).Elem(), Field{}, func(at Field, y reflect.Value) {
		at.v.SetUint(atomic.LoadUint64((*uint64)(y.Addr().UnsafePointer())))
	})
	return out
}

// Add returns a + b, field by field; a maximum is the larger of the two.
func Add[T any](a, b T) T {
	return combine(a, b, func(kind string, x, y uint64) uint64 {
		if kind == "max" {
			return max(x, y)
		}
		return x + y
	})
}

// Sub returns to - from, field by field: the counts of the window between
// two copies, with gauges and maxima as they stand in to.
func Sub[T any](to, from T) T {
	return combine(to, from, func(kind string, x, y uint64) uint64 {
		if kind != "" {
			return x
		}
		return x - y
	})
}

// combine sets every uint64 field of a to f of its kind, its value and the
// same field of b.
func combine[T any](a, b T, f func(kind string, x, y uint64) uint64) T {
	walk(reflect.ValueOf(&a).Elem(), reflect.ValueOf(b), Field{}, func(at Field, y reflect.Value) {
		if at.v.Kind() == reflect.Uint64 {
			at.v.SetUint(f(at.Kind, at.v.Uint(), y.Uint()))
		}
	})
	return a
}

// Field is one numeric field of a struct, as Each yields it.
type Field struct {
	Set    string // the walked struct's field holding it, an embedded set or a slice of sets; "" for its own
	Name   string // the Go name
	Kind   string // the stat tag: "" for a window count, or "gauge", "max", "lifetime"
	Metric string // the metric tag: a metric name that overrides the derived one
	Label  string // the label tag of the slice of sets holding it
	Elem   int    // its index in that slice, or in the array of numbers it is part of; -1 outside both
	v      reflect.Value
}

// Value returns the field's value: an integer, a float or a time.Duration.
func (f Field) Value() any { return f.v.Interface() }

// Each calls f for every int, int64, uint64 and float64 field of the
// struct v in declaration order, through nested structs and each element
// of an array or slice. Unexported fields and fields tagged `stat:"-"` are
// skipped.
func Each(v any, f func(Field)) {
	x := reflect.ValueOf(v)
	walk(x, x, Field{Elem: -1}, func(at Field, _ reflect.Value) { f(at) })
}

// walk calls f for every numeric field Each yields of x, with the same
// field of y, a value of the same type whose slices are as long.
func walk(x, y reflect.Value, at Field, f func(at Field, y reflect.Value)) {
	switch x.Kind() {
	case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
		at.v = x
		f(at, y)
	case reflect.Array, reflect.Slice:
		for at.Elem = 0; at.Elem < x.Len(); at.Elem++ {
			walk(x.Index(at.Elem), y.Index(at.Elem), at, f)
		}
	case reflect.Struct:
		for i := 0; i < x.NumField(); i++ {
			sf, in := x.Type().Field(i), at
			in.Name, in.Kind, in.Metric = sf.Name, sf.Tag.Get("stat"), sf.Tag.Get("metric")
			if k := sf.Type.Kind(); k == reflect.Struct || k == reflect.Array || k == reflect.Slice {
				in.Set, in.Label = cmp.Or(at.Set, sf.Name), cmp.Or(sf.Tag.Get("label"), at.Label)
			}
			if sf.IsExported() && in.Kind != "-" {
				walk(x.Field(i), y.Field(i), in, f)
			}
		}
	}
}

// WaitBuckets is the number of buckets of a Wait. Bucket i counts the
// waits in (2^(i-1), 2^i] µs, bucket 0 every wait up to 1 µs and the last
// every wait past 2^19 µs ≈ 0.52 s.
const WaitBuckets = 21

// Wait is a latency distribution: the total of the observed waits and
// their log2 buckets. Count, Mean and Quantile read a copy, as Load or Add
// returns it, never the live set.
type Wait struct {
	Nanos   uint64 // every observed wait, summed in nanoseconds
	Buckets [WaitBuckets]uint64
}

// Observe records one wait in place; a negative wait counts as zero.
func (w *Wait) Observe(d time.Duration) {
	ns := uint64(max(d, 0))
	atomic.AddUint64(&w.Buckets[min(bits.Len64((max(ns, 1)-1)/1000), WaitBuckets-1)], 1)
	atomic.AddUint64(&w.Nanos, ns)
}

// Count returns the number of observed waits.
func (w Wait) Count() uint64 {
	var n uint64
	for _, c := range w.Buckets {
		n += c
	}
	return n
}

// Mean returns the average wait, or 0 if there is none.
func (w Wait) Mean() time.Duration {
	if n := w.Count(); n > 0 {
		return time.Duration(w.Nanos) / time.Duration(n)
	}
	return 0
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket that holds it, as Prometheus's histogram_quantile
// does. A wait past the last finite bound counts as on it; with no wait
// the estimate is 0.
func (w Wait) Quantile(q float64) time.Duration {
	n := w.Count()
	if n == 0 {
		return 0
	}
	last := time.Microsecond << (WaitBuckets - 2)
	rank, cum := q*float64(n), 0.0
	for i, c := range w.Buckets {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == WaitBuckets-1 {
			return last
		}
		upper := time.Microsecond << i
		lower := upper / 2
		if i == 0 {
			lower = 0
		}
		frac := (rank - prev) / float64(c)
		return lower + time.Duration(frac*float64(upper-lower))
	}
	return last
}
