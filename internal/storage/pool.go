package storage

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"dqo/internal/faultinject"
)

// Buffer pools for the executor's arrays, one per element kind, and the
// query-scoped Scratch arena that draws from them. Only buffers whose
// lifetime is provably bounded are pooled: selection-index slices (consumed
// by Gather before the caller returns), join row ids and hash-table arrays
// (released by their owner), and the intermediate columns of one query
// (recycled by its Scratch when the query ends). Column and Relation shells
// are never pooled — ProjectRel and Slice alias column pointers into
// downstream results, so their lifetime is unbounded.
//
// Dirty buffers: a pooled buffer comes back holding whatever its last user
// wrote. Neither GetInt32s nor a Scratch draw zeroes it, so a producer writes
// every element it hands out, or clears what it relies on.

// poolMinShift is log2 of the smallest pooled capacity (16 elements); a
// smaller request still gets a buffer of that capacity. It is small because
// an arena holds its arrays until the query ends: a plan run one row per
// morsel draws one array per column per row.
const poolMinShift = 4

// poolClasses is the number of size classes: class c pools buffers of
// capacity [1<<(c+poolMinShift), 2<<(c+poolMinShift)), so a morsel's
// selection vector and a join's row-id array of a few hundred thousand pairs
// never compete for one slot — a large buffer is not handed to a filter, and
// a join does not find a 4 096-entry buffer where it left its own.
const poolClasses = 32 - poolMinShift

// poolClass is the size class of a buffer of the given capacity, negative
// below the smallest.
func poolClass(capacity int) int { return bits.Len(uint(capacity)) - 1 - poolMinShift }

// pool holds []T buffers by size class. Entries are *[]T, so a buffer whose
// holder comes back with it (a Scratch's) is put without an allocation.
type pool[T any] [poolClasses]sync.Pool

// get returns a holder of a zero-length buffer with at least the given
// capacity, drawn from the class of that capacity when it has one large
// enough (a smaller one found there is dropped, so a class converges on the
// largest size asked of it). A fresh buffer has exactly the capacity asked
// for — two arrays of one power-of-two size, filled in lockstep, fight over
// cache sets.
func (p *pool[T]) get(capacity int) *[]T {
	capacity = max(capacity, 1<<poolMinShift)
	if c := poolClass(capacity); c < poolClasses {
		if b, ok := p[c].Get().(*[]T); ok && cap(*b) >= capacity {
			*b = (*b)[:0]
			return b
		}
	}
	b := make([]T, 0, capacity)
	return &b
}

// put returns a buffer to the pool of its class; buffers outside every class
// are dropped.
func (p *pool[T]) put(b *[]T) {
	if c := poolClass(cap(*b)); c >= 0 && c < poolClasses {
		p[c].Put(b)
	}
}

var (
	int32Pool   pool[int32]
	uint32Pool  pool[uint32]
	uint64Pool  pool[uint64]
	int64Pool   pool[int64]
	float64Pool pool[float64]
)

// GetInt32s returns a zero-length []int32 with at least the given capacity,
// drawn from the int32 pool (see pool.get). Its contents are whatever the
// buffer's last user left. Release it with PutInt32s once no live reference
// to its backing array remains.
func GetInt32s(capacity int) []int32 { return *int32Pool.get(capacity) }

// PutInt32s returns a buffer to the pool: one obtained from GetInt32s, or
// any other no reference to survives.
func PutInt32s(buf []int32) { int32Pool.put(&buf) }

// Scratch is one query's arena for intermediate arrays: the payloads of
// gathered and concatenated columns and the grouping kernels' state and
// order arrays. A draw takes a buffer from the pool of its element kind and
// remembers it; Recycle, called once when the query has ended and every
// worker has been joined, hands all of them back at once, except those the
// query's result still views. Draws are safe for concurrent use.
//
// A nil *Scratch is no arena: its draws make fresh zeroed arrays that the
// garbage collector reclaims, as a nil Budget is no limit. What outlives the
// query — a registered table's decoded segments, statistics, adopted join
// tables, cracked indexes, cached plans — never draws from a Scratch.
//
// Drawn arrays are dirty (see the pool contract above). In the faultinject
// build every draw is filled with a poison pattern and every recycled array
// is overwritten with it and quarantined instead of pooled, so a producer
// that relies on zeroed memory, or a read after the query recycled its
// scratch, gives a wrong answer that the differential suites catch.
type Scratch struct {
	mu  sync.Mutex
	u32 []*[]uint32
	u64 []*[]uint64
	i64 []*[]int64
	f64 []*[]float64
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// NewScratch returns an empty arena. Recycle gives it back.
func NewScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Uint32s draws a []uint32 of n dirty elements (nil arena: zeroed, fresh).
func (s *Scratch) Uint32s(n int) []uint32 {
	if s == nil {
		return make([]uint32, n)
	}
	return draw(s, &uint32Pool, &s.u32, n, poisonU32)
}

// Uint64s draws a []uint64 of n dirty elements (nil arena: zeroed, fresh).
func (s *Scratch) Uint64s(n int) []uint64 {
	if s == nil {
		return make([]uint64, n)
	}
	return draw(s, &uint64Pool, &s.u64, n, poisonU64)
}

// Int64s draws a []int64 of n dirty elements (nil arena: zeroed, fresh).
func (s *Scratch) Int64s(n int) []int64 {
	if s == nil {
		return make([]int64, n)
	}
	return draw(s, &int64Pool, &s.i64, n, poisonI64)
}

// Float64s draws a []float64 of n dirty elements (nil arena: zeroed, fresh).
func (s *Scratch) Float64s(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	return draw(s, &float64Pool, &s.f64, n, poisonF64)
}

// Poison patterns of the faultinject build: values no test data holds, so a
// read of one shows up as a wrong answer. The float is a NaN, which equals
// nothing.
const (
	poisonU32 uint32 = 0xDEADBEEF
	poisonU64 uint64 = 0xDEADBEEFDEADBEEF
	poisonI64 int64  = -0x2152411021524111 // poisonU64's bits
)

var poisonF64 = math.Float64frombits(0x7FF4DEADBEEF0000)

// draw takes a buffer of n elements from p and records it on the arena's
// list for its kind.
func draw[T any](s *Scratch, p *pool[T], list *[]*[]T, n int, poison T) []T {
	if n == 0 {
		return []T{}
	}
	b := p.get(n)
	s.mu.Lock()
	*list = append(*list, b)
	s.mu.Unlock()
	out := (*b)[:n]
	if faultinject.Enabled {
		fill(out[:cap(out)], poison)
	}
	return out
}

// Recycle hands every array drawn from s back to its pool, except the arrays
// that back any part of a column of keep (the relation the query returns, nil
// for none), and then gives s itself back: the caller must not use s again.
// It must run after the last draw and the last read of every other array,
// which for a query is after its operator tree is closed.
func (s *Scratch) Recycle(keep *Relation) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.u32 = recycle(s.u32, &uint32Pool, keep, poisonU32)
	s.u64 = recycle(s.u64, &uint64Pool, keep, poisonU64)
	s.i64 = recycle(s.i64, &int64Pool, keep, poisonI64)
	s.f64 = recycle(s.f64, &float64Pool, keep, poisonF64)
	s.mu.Unlock()
	scratchPool.Put(s)
}

// recycle puts back the buffers of list that keep does not view and returns
// the emptied list, its capacity kept for the arena's next query.
func recycle[T any](list []*[]T, p *pool[T], keep *Relation, poison T) []*[]T {
	for i, b := range list {
		list[i] = nil
		buf := (*b)[:cap(*b)]
		if keep.views(addrRange(buf)) {
			continue
		}
		if faultinject.Enabled {
			fill(buf, poison)
			quarantine(len(buf)*int(unsafe.Sizeof(poison)), buf)
			continue
		}
		p.put(b)
	}
	return list[:0]
}

// span is the address range [lo, hi) of a slice's elements.
type span struct{ lo, hi uintptr }

func addrRange[T any](xs []T) span {
	if len(xs) == 0 {
		return span{}
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(xs)))
	return span{lo, lo + uintptr(len(xs))*unsafe.Sizeof(xs[0])}
}

// views reports whether a column of r is backed by memory in sp. Heap
// objects do not move, so comparing addresses is exact.
func (r *Relation) views(sp span) bool {
	if r == nil || sp.lo == sp.hi {
		return false
	}
	for _, c := range r.cols {
		var cs span
		switch {
		case c.enc != nil:
			continue // an encoded payload belongs to a registered table
		case c.u32 != nil:
			cs = addrRange(c.u32)
		case c.u64 != nil:
			cs = addrRange(c.u64)
		case c.i64 != nil:
			cs = addrRange(c.i64)
		case c.f64 != nil:
			cs = addrRange(c.f64)
		}
		if cs.lo < sp.hi && sp.lo < cs.hi {
			return true
		}
	}
	return false
}

// fill sets every element of xs to v, doubling the filled prefix with copy:
// a memmove per doubling rather than a store per element.
func fill[T any](xs []T, v T) {
	if len(xs) == 0 {
		return
	}
	xs[0] = v
	for n := 1; n < len(xs); n *= 2 {
		copy(xs[n:], xs[:n])
	}
}

// quarantined holds the most recently recycled arrays of the faultinject
// build, poisoned, so that the memory of an array read after its query ended
// still holds the poison rather than a later allocation. It is bounded:
// the oldest arrays leave first, half of them at a time.
var quarantined struct {
	mu    sync.Mutex
	bufs  []any
	sizes []int
	bytes int
}

const quarantineBytes = 64 << 20

func quarantine(bytes int, buf any) {
	q := &quarantined
	q.mu.Lock()
	defer q.mu.Unlock()
	q.bufs, q.sizes = append(q.bufs, buf), append(q.sizes, bytes)
	q.bytes += bytes
	if q.bytes > quarantineBytes { // drop the older half: amortised O(1) per array
		half := len(q.bufs) / 2
		for _, n := range q.sizes[:half] {
			q.bytes -= n
		}
		q.bufs, q.sizes = slices.Delete(q.bufs, 0, half), slices.Delete(q.sizes, 0, half)
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
