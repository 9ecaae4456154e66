// Package sortx implements the sorting algorithms used by the sort-based
// operators (SOG, SOJ) and the physical Sort operator.
//
// In the paper's Table 1 analogy the concrete sort algorithm is a "molecule"
// inside the sort-based grouping "macro-molecule": the optimiser may choose
// between an LSD radix sort (linear, key-type specific) and a comparison sort
// (general). Both are exposed here, plus an argsort producing a permutation
// for sorting whole relations by one column.
package sortx

import "slices"

// Kind identifies a sorting algorithm.
type Kind uint8

// Sorting algorithm kinds. Radix is a least-significant-digit counting sort
// over 8-bit digits (4 passes for uint32). Comparison is the standard
// library's sort: slices.Sort for values, slices.SortStableFunc for the
// argsort and the key/payload pairs.
const (
	Radix Kind = iota
	Comparison
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Radix:
		return "radix"
	case Comparison:
		return "comparison"
	default:
		return "unknown"
	}
}

// Kinds lists all sort kinds, for ablation sweeps.
func Kinds() []Kind { return []Kind{Radix, Comparison} }

// SortUint32 sorts xs ascending in place using the given algorithm.
func SortUint32(k Kind, xs []uint32) {
	if k == Radix {
		radixSortUint32(xs)
		return
	}
	slices.Sort(xs)
}

// IsSortedUint32 reports whether xs is non-decreasing.
func IsSortedUint32(xs []uint32) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}

// IsSortedUint64 reports whether xs is non-decreasing.
func IsSortedUint64(xs []uint64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}

// radixSortUint32 is a 4-pass LSD radix sort with one shared counting buffer
// and an early exit for passes whose digit is constant.
func radixSortUint32(xs []uint32) {
	n := len(xs)
	if n < 64 {
		slices.Sort(xs)
		return
	}
	buf := make([]uint32, n)
	src, dst := xs, buf
	var count [256]int
	for shift := uint(0); shift < 32; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, x := range src {
			count[(x>>shift)&0xff]++
		}
		if count[src[0]>>shift&0xff] == n {
			continue // all digits equal: pass is a no-op
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, x := range src {
			d := (x >> shift) & 0xff
			dst[count[d]] = x
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// ArgSortUint32 returns a permutation idx such that keys[idx[0]] <=
// keys[idx[1]] <= ... The sort is stable: equal keys keep their input order.
// It is used to sort whole relations by one key column (gather with idx).
func ArgSortUint32(k Kind, keys []uint32) []int32 {
	idx := iota32(len(keys))
	argSortRun(k, keys, idx)
	return idx
}

func iota32(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// argSortRun stable-sorts the row ids in idx by their keys.
func argSortRun(k Kind, keys []uint32, idx []int32) {
	if k == Radix {
		argRadixUint32(keys, idx)
		return
	}
	slices.SortStableFunc(idx, func(a, b int32) int {
		ka, kb := keys[a], keys[b]
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		default:
			return 0
		}
	})
}

// argRadixUint32 permutes idx so keys[idx] is sorted, using LSD radix over
// the keys; LSD radix is inherently stable.
func argRadixUint32(keys []uint32, idx []int32) {
	n := len(idx)
	if n < 2 {
		return
	}
	buf := make([]int32, n)
	src, dst := idx, buf
	var count [256]int
	for shift := uint(0); shift < 32; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, id := range src {
			count[(keys[id]>>shift)&0xff]++
		}
		if count[(keys[src[0]]>>shift)&0xff] == n {
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, id := range src {
			d := (keys[id] >> shift) & 0xff
			dst[count[d]] = id
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// SortPairsUint32Int64 sorts keys ascending and applies the same permutation
// to vals (stable). This is the kernel of sort & order-based grouping: the
// payload is the aggregation input that must travel with its key.
func SortPairsUint32Int64(k Kind, keys []uint32, vals []int64) {
	if len(keys) != len(vals) {
		panic("sortx: SortPairsUint32Int64 length mismatch")
	}
	if k == Radix {
		radixSortPairs(keys, vals)
		return
	}
	idx := ArgSortUint32(k, keys)
	applyPerm(keys, idx)
	applyPerm(vals, idx)
}

func radixSortPairs(keys []uint32, vals []int64) {
	n := len(keys)
	if n < 2 {
		return
	}
	kbuf := make([]uint32, n)
	vbuf := make([]int64, n)
	ksrc, kdst := keys, kbuf
	vsrc, vdst := vals, vbuf
	var count [256]int
	for shift := uint(0); shift < 32; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, x := range ksrc {
			count[(x>>shift)&0xff]++
		}
		if count[(ksrc[0]>>shift)&0xff] == n {
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, x := range ksrc {
			d := (x >> shift) & 0xff
			kdst[count[d]] = x
			vdst[count[d]] = vsrc[i]
			count[d]++
		}
		ksrc, kdst = kdst, ksrc
		vsrc, vdst = vdst, vsrc
	}
	if &ksrc[0] != &keys[0] {
		copy(keys, ksrc)
		copy(vals, vsrc)
	}
}

// applyPerm rearranges xs so that xs[i] becomes the old xs[idx[i]].
func applyPerm[T any](xs []T, idx []int32) {
	out := make([]T, len(xs))
	for i, j := range idx {
		out[i] = xs[j]
	}
	copy(xs, out)
}
