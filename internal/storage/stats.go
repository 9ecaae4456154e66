package storage

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Stats describes the data properties of a column that the optimiser reasons
// about. The paper (Section 2.2) lists sortedness and density explicitly and
// names further properties (clustered, partitioned, correlated, compressed,
// layout) as DQO plan properties; Stats carries the value-level ones.
//
// Min/Max/Distinct use the column's key space mapped to uint64 (for signed
// columns the values are offset-mapped so ordering is preserved).
type Stats struct {
	Rows     int    // number of rows covered
	Min      uint64 // minimum key (undefined if Rows == 0)
	Max      uint64 // maximum key (undefined if Rows == 0)
	Distinct int    // exact number of distinct keys
	Sorted   bool   // non-decreasing in storage order
	Dense    bool   // Distinct == Max-Min+1 (contiguous key domain)
	Exact    bool   // true if computed or declared from ground truth
}

// statsCell holds a column's lazily computed or declared statistics. It
// belongs to the column that owns the data; whole-column views point at it.
type statsCell struct {
	mu sync.Mutex // serialises the first computation
	st atomic.Pointer[Stats]
}

// cell returns the statistics cell c reads and fills.
func (c *Column) cell() *statsCell {
	if c.shared != nil {
		return c.shared
	}
	return &c.own
}

// statsComputed counts exact statistics computations (full column scans).
var statsComputed atomic.Int64

// StatsComputations returns how many times any column's statistics have been
// computed from its data since process start. Tests take differences of it to
// pin that planning does not rescan registered tables.
func StatsComputations() int64 { return statsComputed.Load() }

// String renders the stats compactly for EXPLAIN output.
func (s Stats) String() string {
	sortedness := "unsorted"
	if s.Sorted {
		sortedness = "sorted"
	}
	density := "sparse"
	if s.Dense {
		density = "dense"
	}
	return fmt.Sprintf("rows=%d distinct=%d min=%d max=%d %s %s",
		s.Rows, s.Distinct, s.Min, s.Max, sortedness, density)
}

// DenseDomain reports whether the stats describe a dense domain and, if so,
// its bounds. A single-value column (Distinct == 1) is trivially dense.
func (s Stats) DenseDomain() (lo, hi uint64, ok bool) {
	if !s.Dense || s.Rows == 0 {
		return 0, 0, false
	}
	return s.Min, s.Max, true
}

// Exact statistics are one kernel per kind, in two passes over the values
// as stored (no key copy, no Go map). The first pass finds sortedness, min
// and max, and the runs of equal values up to the first descent. The second
// counts the distinct values by the cheapest exact means the first pass
// allows: the run count of a sorted column, a bitmap over [min, max] when
// that span is under bitmapSpanPerRow values per row, or else an
// open-addressing set sized by the distinct values it meets.

// bitmapSpanPerRow bounds the bitmap path: a span of up to 64 values per row
// costs at most one 8-byte word per row, the size of the column's own keys.
const bitmapSpanPerRow = 64

// intKey is the set of stored integer kinds; string columns count as uint32.
type intKey interface{ uint32 | uint64 | int64 }

// Uint32Stats returns the exact statistics of a uint32 slice (values or
// dictionary codes), computed as a column's are.
func Uint32Stats(keys []uint32) Stats { return intStats(keys, 0) }

// intStats computes exact stats over integer values. flip is XORed onto the
// values' bits to map them to order-preserving uint64 keys: 0 for unsigned
// kinds, the sign bit for int64.
func intStats[T intKey](vals []T, flip uint64) Stats {
	st := Stats{Rows: len(vals), Sorted: true, Exact: true}
	if len(vals) == 0 {
		st.Dense = true
		return st
	}
	// The sorted prefix: its runs of equal values, up to the first descent.
	runs, i := 1, 1
	for ; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			break
		}
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	sorted := i == len(vals)
	mn, mx := vals[0], vals[i-1]
	for _, v := range vals[i:] {
		mn, mx = min(mn, v), max(mx, v)
	}
	st.Sorted = sorted
	st.Min, st.Max = uint64(mn)^flip, uint64(mx)^flip
	// The span is the same in the values' own arithmetic and in key space:
	// the flip adds the same constant to both ends, modulo 2^64.
	span := uint64(mx) - uint64(mn)
	switch {
	case sorted:
		st.Distinct = runs
	case span/bitmapSpanPerRow < uint64(len(vals)):
		st.Distinct = bitmapDistinct(vals, mn, span)
	default:
		st.Distinct = hashDistinct(vals, mn)
	}
	st.Dense = uint64(st.Distinct) == st.Max-st.Min+1
	return st
}

// bitmapDistinct counts the distinct values of vals, all within
// [mn, mn+span], with one bit per value of the span.
func bitmapDistinct[T intKey](vals []T, mn T, span uint64) int {
	words := make([]uint64, span/64+1)
	for _, v := range vals {
		o := uint64(v) - uint64(mn)
		words[o/64] |= 1 << (o % 64)
	}
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// hashDistinct counts the distinct values of vals, whose minimum is mn. The
// set holds each value's offset from mn, so mn is counted up front and
// offset 0 is free to mark an empty slot.
func hashDistinct[T intKey](vals []T, mn T) int {
	set := newDistinctSet()
	for _, v := range vals {
		if v != mn {
			set.add(uint64(v) - uint64(mn))
		}
	}
	return 1 + set.n
}

// distinctSet is an open-addressing (linear probing) set of non-zero keys.
// It starts small and doubles at half load, so its size follows the
// distinct values met, not the rows scanned.
type distinctSet struct {
	slots []uint64
	mask  uint64 // len(slots) - 1
	shift uint   // 64 - log2(len(slots))
	n     int    // keys held
}

// newDistinctSet returns an empty set of a few hundred slots.
func newDistinctSet() *distinctSet {
	s := &distinctSet{}
	s.resize(256)
	return s
}

// home is k's first slot: Fibonacci hashing, the product's top bits.
func (s *distinctSet) home(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> s.shift }

// add inserts the non-zero key k. The probe is small enough to inline; the
// insert of a new key is not on the path of the values already held.
func (s *distinctSet) add(k uint64) {
	i := s.home(k)
	for s.slots[i] != k {
		if s.slots[i] == 0 {
			s.insert(i, k)
			return
		}
		i = (i + 1) & s.mask
	}
}

// insert puts k into the empty slot i, doubling the set at half load.
func (s *distinctSet) insert(i uint64, k uint64) {
	s.slots[i] = k
	s.n++
	if 2*s.n > len(s.slots) {
		s.resize(2 * len(s.slots))
	}
}

// resize rehashes the set into n slots (a power of two).
func (s *distinctSet) resize(n int) {
	old := s.slots
	s.slots = make([]uint64, n)
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
	s.mask = uint64(n - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := s.home(k)
		for s.slots[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = k
	}
}

// floatStats computes the float64 statistics: Rows, Sorted and Distinct.
// Equality is Go's ==, as a map[float64] keyed on the values would see it:
// -0 and +0 are one value, and every NaN is a value of its own (NaN never
// breaks sortedness, as v < prev is false on it).
func floatStats(vals []float64) Stats {
	st := Stats{Rows: len(vals), Sorted: true, Exact: true}
	prev := math.Inf(-1)
	nans, runs := 0, 0
	for i, v := range vals {
		if v < prev {
			st.Sorted = false
		}
		if v != v {
			nans++
		} else if i == 0 || v != prev {
			runs++
		}
		prev = v
	}
	if st.Sorted && nans == 0 {
		st.Distinct = runs
		return st
	}
	// The set holds bit patterns, -0 folded onto +0, as offsets from the
	// first non-NaN value's; NaNs are counted apart.
	set := newDistinctSet()
	var base uint64
	seen := false
	for _, v := range vals {
		if v != v {
			continue
		}
		if v == 0 {
			v = 0
		}
		b := math.Float64bits(v)
		switch {
		case !seen:
			base, seen = b, true
		case b != base:
			set.add(b - base)
		}
	}
	if seen {
		st.Distinct = 1 + set.n
	}
	st.Distinct += nans
	return st
}
