// Package stat copies, sums and subtracts counter structs. A layer declares
// its counters once, as the uint64 fields of one exported struct, keeps a
// value of it as its live counter set and bumps the fields in place with
// sync/atomic. Load copies such a set, Add sums two copies (the parts of a
// sharded or partitioned layer) and Sub takes the window between two.
//
// A field tagged `stat:"gauge"` is a level, not a count, one tagged
// `stat:"max"` a high-water mark and one tagged `stat:"lifetime"` a count
// no window restarts: Sub carries all three through from the later copy
// instead of subtracting, and Add keeps the larger maximum. Nested structs
// and arrays are walked element by element; any other field is copied
// from the first operand.
//
// A live set assumes a 64-bit platform: atomic.AddUint64 on a plain field
// needs the 8-byte alignment that 32-bit platforms guarantee only for the
// first word of an allocation.
package stat

import (
	"reflect"
	"sync/atomic"
)

// Load returns a copy of *p whose uint64 fields are read atomically, so it
// may run while other goroutines bump them.
func Load[T any](p *T) T {
	var out T
	v := reflect.ValueOf(p).Elem()
	walk(reflect.ValueOf(&out).Elem(), v, v, "", func(_ string, a, _ reflect.Value) uint64 {
		return atomic.LoadUint64((*uint64)(a.Addr().UnsafePointer()))
	})
	return out
}

// Add returns a + b, field by field; a maximum is the larger of the two.
func Add[T any](a, b T) T {
	return combine(a, b, func(tag string, x, y reflect.Value) uint64 {
		if tag == "max" {
			return max(x.Uint(), y.Uint())
		}
		return x.Uint() + y.Uint()
	})
}

// Sub returns to - from, field by field: the counts of the window between
// two copies, with gauges and maxima as they stand in to.
func Sub[T any](to, from T) T {
	return combine(to, from, func(tag string, x, y reflect.Value) uint64 {
		if tag != "" {
			return x.Uint()
		}
		return x.Uint() - y.Uint()
	})
}

// combine applies f to every pair of uint64 fields of a and b.
func combine[T any](a, b T, f func(tag string, x, y reflect.Value) uint64) T {
	var out T
	walk(reflect.ValueOf(&out).Elem(), reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), "", f)
	return out
}

// walk sets dst from a and b: every uint64 reached through structs and
// arrays to f of its tag and the two operands, everything else to a.
func walk(dst, a, b reflect.Value, tag string, f func(tag string, x, y reflect.Value) uint64) {
	switch dst.Kind() {
	case reflect.Struct:
		t := dst.Type()
		for i := 0; i < t.NumField(); i++ {
			walk(dst.Field(i), a.Field(i), b.Field(i), t.Field(i).Tag.Get("stat"), f)
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			walk(dst.Index(i), a.Index(i), b.Index(i), tag, f)
		}
	case reflect.Uint64:
		dst.SetUint(f(tag, a, b))
	default:
		dst.Set(a)
	}
}
