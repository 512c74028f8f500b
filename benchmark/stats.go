package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"reflect"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even
// lengths), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// digest is a SHA-256 over every numeric field reachable from the
// values, in declaration order. Strings are skipped on purpose: the
// traced run names its backends "traced-<name>", and a speed-only
// change must leave the digest untouched whatever it renames.
func digest(values ...any) [32]byte {
	h := sha256.New()
	for _, v := range values {
		writeNumbers(h, reflect.ValueOf(v))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func writeNumbers(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			writeNumbers(h, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			writeNumbers(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		// The length keeps [[1],[2,3]] and [[1,2],[3]] apart.
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			writeNumbers(h, v.Index(i))
		}
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	}
}

// spread is the distance between the first and third quartile of xs as
// a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives. Fewer than two values have no
// spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}
