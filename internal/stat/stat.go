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
// A live set assumes a 64-bit platform: atomic.AddUint64 on a plain field
// needs the 8-byte alignment that 32-bit platforms guarantee only for the
// first word of an allocation.
package stat

import (
	"cmp"
	"reflect"
	"sync/atomic"
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
