package sortx

import (
	"cmp"
	"slices"
	"testing"
)

// FuzzSorts cross-checks every sort shape on arbitrary byte-derived keys
// (seeds run in plain `go test`): values against slices.Sort, the argsort of
// each kind against a sort on (key, input position), the pairs against the
// argsort (every payload stays with its key, equal keys keep input order),
// and all three through the parallel driver at 2 and 3 workers, on the keys
// tiled past 3*minParallelRun, against the serial sort. Tiling repeats every
// key across runs, so a merge that took a tie from the right run would show.
func FuzzSorts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{255, 0, 255, 0, 1, 2, 3})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		xs := make([]uint32, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			xs = append(xs, uint32(raw[i])<<8|uint32(raw[i+1]))
		}
		checkSerialShapes(t, xs)
		if len(xs) == 0 {
			return
		}
		tiled := make([]uint32, 3*minParallelRun+len(xs)%7+1)
		for i := range tiled {
			tiled[i] = xs[i%len(xs)]
		}
		for _, k := range Kinds() {
			wantIdx := ArgSortUint32(k, tiled)
			wantXs := append([]uint32(nil), tiled...)
			SortUint32(k, wantXs)
			for _, w := range []int{2, 3} {
				idx, err := ParallelArgSortUint32Ctl(k, tiled, w, nil)
				if err != nil || !slices.Equal(idx, wantIdx) {
					t.Fatalf("%s/w=%d: parallel argsort differs from serial (err %v)", k, w, err)
				}
				got := append([]uint32(nil), tiled...)
				if err := ParallelSortUint32Ctl(k, got, w, nil); err != nil || !slices.Equal(got, wantXs) {
					t.Fatalf("%s/w=%d: parallel values differ from serial (err %v)", k, w, err)
				}
				keys, vals := append([]uint32(nil), tiled...), positions(len(tiled))
				if err := ParallelSortPairsUint32Int64Ctl(k, keys, vals, w, nil); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(keys, wantXs) || !sameAsIdx(vals, wantIdx) {
					t.Fatalf("%s/w=%d: parallel pairs differ from serial", k, w)
				}
			}
		}
	})
}

// checkSerialShapes checks the serial value sort, argsort and pair sort of
// every kind on xs.
func checkSerialShapes(t *testing.T, xs []uint32) {
	t.Helper()
	want := append([]uint32(nil), xs...)
	slices.Sort(want)
	stable := make([]int32, len(xs))
	for i := range stable {
		stable[i] = int32(i)
	}
	slices.SortFunc(stable, func(a, b int32) int {
		return cmp.Or(cmp.Compare(xs[a], xs[b]), cmp.Compare(a, b))
	})
	for _, k := range Kinds() {
		got := append([]uint32(nil), xs...)
		SortUint32(k, got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: values mismatch on %v", k, xs)
		}
		if idx := ArgSortUint32(k, xs); !slices.Equal(idx, stable) {
			t.Fatalf("%s: argsort %v, want the stable order %v", k, idx, stable)
		}
		keys, vals := append([]uint32(nil), xs...), positions(len(xs))
		SortPairsUint32Int64(k, keys, vals)
		for i, v := range vals {
			if keys[i] != xs[v] {
				t.Fatalf("%s: pair %d holds key %d with the payload of key %d", k, i, keys[i], xs[v])
			}
		}
		if !slices.Equal(keys, want) || !sameAsIdx(vals, stable) {
			t.Fatalf("%s: pairs not sorted stably: %v / %v", k, keys, vals)
		}
	}
}

// positions returns the payload 0, 1, ..., n-1: each value names its key's
// input position.
func positions(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	return vals
}

func sameAsIdx(vals []int64, idx []int32) bool {
	if len(vals) != len(idx) {
		return false
	}
	for i := range vals {
		if vals[i] != int64(idx[i]) {
			return false
		}
	}
	return true
}
