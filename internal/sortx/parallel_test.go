package sortx

import (
	"fmt"
	"math/rand"
	"testing"
)

// parallelTestInputs returns key arrays with assorted shapes: random sparse,
// heavy duplicates, already sorted, reverse sorted, constant, and sizes that
// do not divide evenly across workers.
func parallelTestInputs(t *testing.T) map[string][]uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n := 3*minParallelRun + 137 // forces uneven runs at small worker counts
	random := make([]uint32, n)
	dups := make([]uint32, n)
	asc := make([]uint32, n)
	desc := make([]uint32, n)
	konst := make([]uint32, n)
	for i := 0; i < n; i++ {
		random[i] = rng.Uint32()
		dups[i] = uint32(rng.Intn(17))
		asc[i] = uint32(i)
		desc[i] = uint32(n - i)
		konst[i] = 42
	}
	return map[string][]uint32{
		"random": random, "dups": dups, "asc": asc, "desc": desc, "const": konst,
		"tiny": {5, 3, 3, 9, 1},
	}
}

func TestParallelArgSortMatchesSerial(t *testing.T) {
	for name, keys := range parallelTestInputs(t) {
		for _, k := range Kinds() {
			want := ArgSortUint32(k, keys)
			for _, w := range []int{1, 2, 3, 8} {
				got, err := ParallelArgSortUint32Ctl(k, keys, w, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s/w=%d: length %d vs %d", name, k, w, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%s/w=%d: idx[%d] = %d, want %d (keys %d vs %d)",
							name, k, w, i, got[i], want[i], keys[got[i]], keys[want[i]])
					}
				}
			}
		}
	}
}

func TestParallelSortMatchesSerial(t *testing.T) {
	for name, keys := range parallelTestInputs(t) {
		for _, k := range Kinds() {
			want := append([]uint32(nil), keys...)
			SortUint32(k, want)
			for _, w := range []int{2, 3, 8} {
				got := append([]uint32(nil), keys...)
				if err := ParallelSortUint32Ctl(k, got, w, nil); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%s/w=%d: [%d] = %d, want %d", name, k, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestParallelSortPairsMatchesSerial(t *testing.T) {
	for name, keys := range parallelTestInputs(t) {
		vals := make([]int64, len(keys))
		for i := range vals {
			vals[i] = int64(i) // position payload makes stability observable
		}
		for _, k := range Kinds() {
			wk := append([]uint32(nil), keys...)
			wv := append([]int64(nil), vals...)
			SortPairsUint32Int64(k, wk, wv)
			for _, w := range []int{2, 3, 8} {
				gk := append([]uint32(nil), keys...)
				gv := append([]int64(nil), vals...)
				if err := ParallelSortPairsUint32Int64Ctl(k, gk, gv, w, nil); err != nil {
					t.Fatal(err)
				}
				for i := range gk {
					if gk[i] != wk[i] || gv[i] != wv[i] {
						t.Fatalf("%s/%s/w=%d: [%d] = (%d,%d), want (%d,%d)",
							name, k, w, i, gk[i], gv[i], wk[i], wv[i])
					}
				}
			}
		}
	}
}

// BenchmarkParallelSort times the three shapes through the parallel
// run-and-merge driver over 1 M sparse keys with the radix kind, the one the
// planner picks: <shape>/w=1 is the serial sort, w=2 and w=4 add the fork and
// the merge rounds.
func BenchmarkParallelSort(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(11))
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	xs := make([]uint32, n)
	vals := make([]int64, n)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("argsort/w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ParallelArgSortUint32Ctl(Radix, keys, w, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("values/w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(xs, keys)
				if err := ParallelSortUint32Ctl(Radix, xs, w, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pairs/w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(xs, keys)
				for j := range vals {
					vals[j] = int64(j)
				}
				if err := ParallelSortPairsUint32Int64Ctl(Radix, xs, vals, w, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
