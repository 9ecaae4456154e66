package sortx

import (
	"slices"
	"testing"
	"testing/quick"

	"dqo/internal/xrand"
)

func TestSortUint32AllKinds(t *testing.T) {
	r := xrand.New(1)
	for _, k := range Kinds() {
		for _, n := range []int{0, 1, 2, 15, 16, 17, 63, 64, 65, 1000, 100000} {
			xs := make([]uint32, n)
			for i := range xs {
				xs[i] = r.Uint32()
			}
			want := append([]uint32(nil), xs...)
			slices.Sort(want)
			SortUint32(k, xs)
			if !slices.Equal(xs, want) {
				t.Fatalf("%s: n=%d mismatch", k, n)
			}
		}
	}
}

func TestSortUint32Patterns(t *testing.T) {
	patterns := map[string]func(n int, r *xrand.Rand) []uint32{
		"sorted": func(n int, r *xrand.Rand) []uint32 {
			xs := make([]uint32, n)
			for i := range xs {
				xs[i] = uint32(i)
			}
			return xs
		},
		"reverse": func(n int, r *xrand.Rand) []uint32 {
			xs := make([]uint32, n)
			for i := range xs {
				xs[i] = uint32(n - i)
			}
			return xs
		},
		"constant": func(n int, r *xrand.Rand) []uint32 {
			xs := make([]uint32, n)
			for i := range xs {
				xs[i] = 7
			}
			return xs
		},
		"fewdistinct": func(n int, r *xrand.Rand) []uint32 {
			xs := make([]uint32, n)
			for i := range xs {
				xs[i] = r.Uint32n(3)
			}
			return xs
		},
		"organpipe": func(n int, r *xrand.Rand) []uint32 {
			xs := make([]uint32, n)
			for i := range xs {
				if i < n/2 {
					xs[i] = uint32(i)
				} else {
					xs[i] = uint32(n - i)
				}
			}
			return xs
		},
	}
	r := xrand.New(2)
	for name, gen := range patterns {
		for _, k := range Kinds() {
			xs := gen(1000, r)
			want := append([]uint32(nil), xs...)
			slices.Sort(want)
			SortUint32(k, xs)
			if !slices.Equal(xs, want) {
				t.Fatalf("%s/%s mismatch", k, name)
			}
		}
	}
}

func TestSortQuick(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		f := func(xs []uint32) bool {
			want := append([]uint32(nil), xs...)
			slices.Sort(want)
			SortUint32(k, xs)
			return slices.Equal(xs, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSortedUint32([]uint32{1, 1, 2}) || IsSortedUint32([]uint32{2, 1}) {
		t.Fatal("IsSortedUint32 wrong")
	}
	if !IsSortedUint32(nil) || !IsSortedUint64(nil) {
		t.Fatal("empty slices should be sorted")
	}
	if !IsSortedUint64([]uint64{5, 5}) || IsSortedUint64([]uint64{5, 4}) {
		t.Fatal("IsSortedUint64 wrong")
	}
}

func TestArgSortProducesSortedPermutation(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		f := func(keys []uint32) bool {
			idx := ArgSortUint32(k, keys)
			if len(idx) != len(keys) {
				return false
			}
			seen := make([]bool, len(keys))
			for _, j := range idx {
				if j < 0 || int(j) >= len(keys) || seen[j] {
					return false
				}
				seen[j] = true
			}
			for i := 1; i < len(idx); i++ {
				if keys[idx[i-1]] > keys[idx[i]] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
}

func TestArgSortStability(t *testing.T) {
	// Equal keys must keep input order for every kind.
	keys := []uint32{3, 1, 3, 1, 3, 2}
	for _, k := range Kinds() {
		idx := ArgSortUint32(k, keys)
		want := []int32{1, 3, 5, 0, 2, 4}
		for i := range want {
			if idx[i] != want[i] {
				t.Fatalf("%s: idx = %v, want %v", k, idx, want)
			}
		}
	}
}

func TestSortPairsKeepsPayloadAttached(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		f := func(keys []uint32) bool {
			vals := make([]int64, len(keys))
			for i, kk := range keys {
				vals[i] = int64(kk)*2 + 1 // payload derived from key
			}
			SortPairsUint32Int64(k, keys, vals)
			if !IsSortedUint32(keys) {
				return false
			}
			for i, kk := range keys {
				if vals[i] != int64(kk)*2+1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
}

func TestSortPairsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	SortPairsUint32Int64(Radix, []uint32{1}, nil)
}

func TestSortPairsStability(t *testing.T) {
	keys := []uint32{2, 1, 2, 1}
	vals := []int64{10, 20, 30, 40}
	SortPairsUint32Int64(Radix, keys, vals)
	wantK := []uint32{1, 1, 2, 2}
	wantV := []int64{20, 40, 10, 30}
	for i := range wantK {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Fatalf("got %v/%v, want %v/%v", keys, vals, wantK, wantV)
		}
	}
}

func BenchmarkSortUint32(b *testing.B) {
	r := xrand.New(3)
	const n = 1 << 20
	data := make([]uint32, n)
	for i := range data {
		data[i] = r.Uint32()
	}
	for _, k := range Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			xs := make([]uint32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(xs, data)
				SortUint32(k, xs)
			}
		})
	}
}
