package storage

import (
	"fmt"
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

// computeStatsU64 computes exact stats over keys already mapped to uint64.
func computeStatsU64(keys []uint64) Stats {
	st := Stats{Rows: len(keys), Sorted: true, Exact: true}
	if len(keys) == 0 {
		st.Dense = true
		return st
	}
	st.Min, st.Max = keys[0], keys[0]
	distinct := make(map[uint64]struct{})
	prev := keys[0]
	for _, k := range keys {
		if k < prev {
			st.Sorted = false
		}
		prev = k
		if k < st.Min {
			st.Min = k
		}
		if k > st.Max {
			st.Max = k
		}
		distinct[k] = struct{}{}
	}
	st.Distinct = len(distinct)
	st.Dense = uint64(st.Distinct) == st.Max-st.Min+1
	return st
}

// statsForUint32 computes exact stats for a uint32 slice without the
// per-element uint64 conversion allocating.
func statsForUint32(keys []uint32) Stats {
	st := Stats{Rows: len(keys), Sorted: true, Exact: true}
	if len(keys) == 0 {
		st.Dense = true
		return st
	}
	mn, mx := keys[0], keys[0]
	distinct := make(map[uint32]struct{})
	prev := keys[0]
	for _, k := range keys {
		if k < prev {
			st.Sorted = false
		}
		prev = k
		if k < mn {
			mn = k
		}
		if k > mx {
			mx = k
		}
		distinct[k] = struct{}{}
	}
	st.Min, st.Max = uint64(mn), uint64(mx)
	st.Distinct = len(distinct)
	st.Dense = uint64(st.Distinct) == st.Max-st.Min+1
	return st
}
