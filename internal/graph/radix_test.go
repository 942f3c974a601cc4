package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestSortByKey holds SortByKey to slices.SortStableFunc on records tagged
// with their input position, so an unstable pass shows as a reordered tie:
// random keys that share some bytes (masked to few distinct values), keys
// that differ in one byte only, all-equal keys, and lengths 0 and 1.
func TestSortByKey(t *testing.T) {
	type rec struct {
		key uint64
		pos int
	}
	check := func(name string, keys []uint64, scratch *[]rec) {
		t.Helper()
		got := make([]rec, len(keys))
		for i, k := range keys {
			got[i] = rec{k, i}
		}
		want := slices.Clone(got)
		slices.SortStableFunc(want, func(a, b rec) int { return cmp.Compare(a.key, b.key) })
		SortByKey(got, scratch, func(r rec) uint64 { return r.key })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: got %v, want %v", name, got, want)
		}
	}
	var scratch []rec
	check("nil", nil, &scratch)
	check("one", []uint64{42}, &scratch)
	check("all equal", []uint64{7, 7, 7, 7, 7}, &scratch)
	check("one byte", []uint64{0x500, 0x100, 0x500, 0x300, 0x100}, &scratch)
	check("top byte", []uint64{1 << 63, 0, 1 << 56, 1 << 63, 0}, &scratch)

	rng := rand.New(rand.NewSource(1))
	masks := []uint64{0, 0xff, 0xff00ff, 0xf0f0_0000_0000_0f0f, 0xffff_0000_ffff_0000, ^uint64(0)}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		mask, base := masks[rng.Intn(len(masks))], rng.Uint64()
		distinct := 1 + rng.Intn(20) // few values, so ties are common
		vals := make([]uint64, distinct)
		for i := range vals {
			vals[i] = base&^mask | rng.Uint64()&mask
		}
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = vals[rng.Intn(distinct)]
		}
		if trial%2 == 0 {
			scratch = nil // a fresh buffer as well as a reused one
		}
		check("random", keys, &scratch)
	}
}

// BenchmarkSortByKey sorts 8,192 (D, key)-shaped records the way phase 4
// does, two passes least significant field first, against one comparator
// sort.
func BenchmarkSortByKey(b *testing.B) {
	type rec struct {
		d, key int64
		pad    [2]int64
	}
	rng := rand.New(rand.NewSource(1))
	src := make([]rec, 8192)
	for i := range src {
		src[i] = rec{d: rng.Int63n(20000), key: rng.Int63n(4096)<<32 | rng.Int63n(4096)}
	}
	s := make([]rec, len(src))
	b.Run("radix", func(b *testing.B) {
		var scratch []rec
		for i := 0; i < b.N; i++ {
			copy(s, src)
			SortByKey(s, &scratch, func(r rec) uint64 { return uint64(r.key) })
			SortByKey(s, &scratch, func(r rec) uint64 { return uint64(r.d) })
		}
	})
	b.Run("comparator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(s, src)
			slices.SortFunc(s, func(x, y rec) int {
				if c := cmp.Compare(x.d, y.d); c != 0 {
					return c
				}
				return cmp.Compare(x.key, y.key)
			})
		}
	})
}
