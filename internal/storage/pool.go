package storage

import (
	"math/bits"
	"sync"
)

// Buffer pools for the morsel executor's hot allocations. Only buffers whose
// lifetime is provably bounded are pooled: selection-index slices (consumed
// by Gather before the caller returns) and Concat's per-column scratch.
// Column and Relation shells are never pooled — ProjectRel and Slice alias
// column pointers into downstream results, so their lifetime is unbounded.

// int32Pools holds []int32 buffers by size class: class c pools buffers of
// capacity [1<<(c+int32MinShift), 2<<(c+int32MinShift)), so a morsel's
// selection vector (class 0) and a join's row-id array of a few hundred
// thousand pairs never compete for one slot — a large buffer is not handed to
// a filter, and a join does not find a 4 096-entry buffer where it left its
// own.
var int32Pools [32 - int32MinShift]sync.Pool

// int32MinShift is log2 of the smallest pooled capacity, a selection vector.
const int32MinShift = 12

// int32Class is the size class of a buffer of the given capacity, negative
// below the smallest.
func int32Class(capacity int) int { return bits.Len(uint(capacity)) - 1 - int32MinShift }

// GetInt32s returns a zero-length []int32 with at least the given capacity,
// drawn from the pool of its size class when that has one large enough (a
// smaller one found there is dropped, so a class converges on the largest
// size asked of it). A fresh buffer has exactly the capacity asked for — two
// arrays of one power-of-two size, filled in lockstep, fight over cache sets.
// Release the buffer with PutInt32s once no live reference to its backing
// array remains.
func GetInt32s(capacity int) []int32 {
	capacity = max(capacity, 1<<int32MinShift)
	if buf, ok := int32Pools[int32Class(capacity)].Get().([]int32); ok && cap(buf) >= capacity {
		return buf[:0]
	}
	return make([]int32, 0, capacity)
}

// PutInt32s returns a buffer to the pool: one obtained from GetInt32s, or
// any other no reference to survives. Buffers below the smallest class are
// dropped.
func PutInt32s(buf []int32) {
	if c := int32Class(cap(buf)); c >= 0 {
		int32Pools[c].Put(buf[:0]) //nolint:staticcheck // slice header allocation is amortised
	}
}

var colScratchPool = sync.Pool{
	New: func() any { return make([]*Column, 0, 16) },
}

func getColScratch(n int) []*Column {
	buf := colScratchPool.Get().([]*Column)
	if cap(buf) < n {
		return make([]*Column, n)
	}
	return buf[:n]
}

func putColScratch(buf []*Column) {
	for i := range buf {
		buf[i] = nil
	}
	colScratchPool.Put(buf[:0]) //nolint:staticcheck
}
