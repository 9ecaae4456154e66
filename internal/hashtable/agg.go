package hashtable

import (
	"fmt"
	"unsafe"

	"dqo/internal/faultinject"
)

// AggState is the running aggregate stored per group. Grouping in the
// experiments computes COUNT and SUM on the fly (Section 4.1); MIN and MAX
// come along because they are also distributive and cost one branch each.
type AggState struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// merge folds a single value into the state.
func (a *AggState) add(v int64) {
	if a.Count == 0 {
		a.Min, a.Max = v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Count++
	a.Sum += v
}

// Merge folds another state into a (used by parallel partial aggregation).
func (a *AggState) Merge(b AggState) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		return
	}
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	a.Count += b.Count
	a.Sum += b.Sum
}

// AggTable is an aggregation hash table from uint32 grouping keys to running
// aggregates. Implementations differ in collision-handling scheme — the
// "which hash table exactly?" dimension of the paper.
type AggTable interface {
	// Add folds value v into the group of key.
	Add(key uint32, v int64)
	// AddBatch folds vals[i] into the group of keys[i], in order; nil vals
	// folds zeros (COUNT-only aggregation). Equivalent to calling Add per
	// row, with the hash function resolved once per block of rows.
	AddBatch(keys []uint32, vals []int64)
	// AddState merges a whole partial state into the group of key; used when
	// merging per-worker partial tables after a parallel build.
	AddState(key uint32, st AggState)
	// Len returns the number of distinct keys.
	Len() int
	// ForEach visits every (key, state) pair in unspecified order.
	ForEach(fn func(key uint32, st AggState))
	// Scheme returns the collision-handling scheme.
	Scheme() Scheme
	// MemBytes returns the table's current heap footprint in bytes
	// (directory plus entry storage), for memory-budget accounting.
	MemBytes() int64
}

// Scheme identifies a collision-handling scheme.
type Scheme uint8

// Collision-handling schemes. Chained is a node-based chained table, the
// stand-in for the paper's std::unordered_map. LinearProbe and RobinHood are
// open-addressing variants.
const (
	Chained Scheme = iota
	LinearProbe
	RobinHood
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case Chained:
		return "chained"
	case LinearProbe:
		return "linearprobe"
	case RobinHood:
		return "robinhood"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Schemes lists all schemes, for ablation sweeps.
func Schemes() []Scheme { return []Scheme{Chained, LinearProbe, RobinHood} }

// NewAgg returns an aggregation table using the given scheme and hash
// function, pre-sized for about capacity distinct keys (0 for a default).
func NewAgg(s Scheme, f Func, capacity int) AggTable {
	switch s {
	case Chained:
		return newChained(f, capacity)
	case LinearProbe:
		return newOpen(f, capacity, false)
	case RobinHood:
		return newOpen(f, capacity, true)
	default:
		panic(fmt.Sprintf("hashtable: unknown scheme %d", uint8(s)))
	}
}

// nextPow2 returns the smallest power of two >= n, at least 8.
func nextPow2(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// hashedAdder is the per-row insert both table layouts share with addBatch:
// Add with the key's hash already computed.
type hashedAdder interface {
	addHashed(key uint32, h uint64, v int64)
}

// addBatch is the tables' AddBatch: it hashes a block of keys at a time and
// hands each row to the table with its hash.
func addBatch(t hashedAdder, f Func, keys []uint32, vals []int64) {
	var hs [hashBlock]uint64
	for lo := 0; lo < len(keys); lo += hashBlock {
		blk := keys[lo:min(lo+hashBlock, len(keys))]
		f.HashBatch(hs[:], blk)
		if vals == nil {
			for i, k := range blk {
				t.addHashed(k, hs[i], 0)
			}
			continue
		}
		vblk := vals[lo : lo+len(blk)]
		for i, k := range blk {
			t.addHashed(k, hs[i], vblk[i])
		}
	}
}

// chainedTable is a node-based chained hash table: a bucket directory of
// int32 heads plus an entry arena. Insertion order is preserved in the arena,
// which makes ForEach iteration order deterministic (first-seen order), like
// the paper's observation that hash table output order "depends heavily on
// the hash function used".
type chainedTable struct {
	fn      Func
	mask    uint64
	heads   []int32 // bucket -> entry index, -1 if empty
	entries []chainedEntry
}

type chainedEntry struct {
	key  uint32
	next int32
	st   AggState
}

func newChained(f Func, capacity int) *chainedTable {
	nb := nextPow2(capacity * 2)
	t := &chainedTable{fn: f, mask: uint64(nb - 1), heads: make([]int32, nb)}
	for i := range t.heads {
		t.heads[i] = -1
	}
	return t
}

func (t *chainedTable) Scheme() Scheme { return Chained }

func (t *chainedTable) Add(key uint32, v int64) { t.addHashed(key, t.fn.Hash(key), v) }

func (t *chainedTable) AddBatch(keys []uint32, vals []int64) { addBatch(t, t.fn, keys, vals) }

func (t *chainedTable) addHashed(key uint32, h uint64, v int64) {
	b := h & t.mask
	for i := t.heads[b]; i >= 0; i = t.entries[i].next {
		if t.entries[i].key == key {
			t.entries[i].st.add(v)
			return
		}
	}
	if len(t.entries) >= len(t.heads) { // load factor 1: grow directory
		t.grow()
		b = h & t.mask
	}
	e := chainedEntry{key: key, next: t.heads[b]}
	e.st.add(v)
	t.heads[b] = int32(len(t.entries))
	t.entries = append(t.entries, e)
}

func (t *chainedTable) AddState(key uint32, st AggState) {
	b := t.fn.Hash(key) & t.mask
	for i := t.heads[b]; i >= 0; i = t.entries[i].next {
		if t.entries[i].key == key {
			t.entries[i].st.Merge(st)
			return
		}
	}
	if len(t.entries) >= len(t.heads) {
		t.grow()
		b = t.fn.Hash(key) & t.mask
	}
	e := chainedEntry{key: key, next: t.heads[b], st: st}
	t.heads[b] = int32(len(t.entries))
	t.entries = append(t.entries, e)
}

func (t *chainedTable) MemBytes() int64 {
	return int64(len(t.heads))*4 + int64(cap(t.entries))*int64(unsafe.Sizeof(chainedEntry{}))
}

func (t *chainedTable) grow() {
	if err := faultinject.Fire(faultinject.PointHashtableGrow); err != nil {
		panic(err)
	}
	nb := len(t.heads) * 2
	t.heads = make([]int32, nb)
	t.mask = uint64(nb - 1)
	for i := range t.heads {
		t.heads[i] = -1
	}
	for i := range t.entries {
		b := t.fn.Hash(t.entries[i].key) & t.mask
		t.entries[i].next = t.heads[b]
		t.heads[b] = int32(i)
	}
}

func (t *chainedTable) Len() int { return len(t.entries) }

func (t *chainedTable) ForEach(fn func(uint32, AggState)) {
	for i := range t.entries {
		fn(t.entries[i].key, t.entries[i].st)
	}
}

// openTable is an open-addressing table with linear probing; with robin hood
// displacement enabled, entries are kept ordered by probe distance, bounding
// variance of lookup cost.
type openTable struct {
	fn         Func
	robin      bool
	mask       uint64
	keys       []uint32
	states     []AggState
	used       []bool
	dist       []uint16 // probe distance, robin hood only
	n          int
	maxLoadPct int
}

func newOpen(f Func, capacity int, robin bool) *openTable {
	nb := nextPow2(capacity * 2)
	t := &openTable{fn: f, robin: robin, maxLoadPct: 70}
	t.alloc(nb)
	return t
}

func (t *openTable) alloc(nb int) {
	t.mask = uint64(nb - 1)
	t.keys = make([]uint32, nb)
	t.states = make([]AggState, nb)
	t.used = make([]bool, nb)
	if t.robin {
		t.dist = make([]uint16, nb)
	}
}

func (t *openTable) Scheme() Scheme {
	if t.robin {
		return RobinHood
	}
	return LinearProbe
}

func (t *openTable) Len() int { return t.n }

func (t *openTable) Add(key uint32, v int64) { t.addHashed(key, t.fn.Hash(key), v) }

func (t *openTable) AddBatch(keys []uint32, vals []int64) { addBatch(t, t.fn, keys, vals) }

func (t *openTable) addHashed(key uint32, h uint64, v int64) {
	if t.n*100 >= len(t.keys)*t.maxLoadPct {
		t.grow()
	}
	if t.robin {
		t.addRobin(key, h, v)
	} else {
		t.addLinear(key, h, v)
	}
}

func (t *openTable) AddState(key uint32, st AggState) {
	if t.n*100 >= len(t.keys)*t.maxLoadPct {
		t.grow()
	}
	t.insertState(key, st)
}

func (t *openTable) addLinear(key uint32, h uint64, v int64) {
	i := h & t.mask
	for t.used[i] {
		if t.keys[i] == key {
			t.states[i].add(v)
			return
		}
		i = (i + 1) & t.mask
	}
	t.used[i] = true
	t.keys[i] = key
	t.states[i] = AggState{}
	t.states[i].add(v)
	t.n++
}

func (t *openTable) addRobin(key uint32, h uint64, v int64) {
	i := h & t.mask
	var d uint16
	insKey, insSt := key, AggState{}
	insSt.add(v)
	pending := false // true once we are carrying a displaced entry
	for {
		if !t.used[i] {
			t.used[i] = true
			t.keys[i] = insKey
			t.states[i] = insSt
			t.dist[i] = d
			t.n++
			return
		}
		if !pending && t.keys[i] == insKey {
			t.states[i].add(v)
			return
		}
		if t.dist[i] < d { // rich entry: displace it, keep inserting
			t.keys[i], insKey = insKey, t.keys[i]
			t.states[i], insSt = insSt, t.states[i]
			t.dist[i], d = d, t.dist[i]
			pending = true
		}
		i = (i + 1) & t.mask
		d++
	}
}

func (t *openTable) MemBytes() int64 {
	per := int64(unsafe.Sizeof(uint32(0))) + int64(unsafe.Sizeof(AggState{})) + 1
	if t.robin {
		per += 2
	}
	return int64(len(t.keys)) * per
}

func (t *openTable) grow() {
	if err := faultinject.Fire(faultinject.PointHashtableGrow); err != nil {
		panic(err)
	}
	oldKeys, oldStates, oldUsed := t.keys, t.states, t.used
	t.alloc(len(oldKeys) * 2)
	t.n = 0
	for i, u := range oldUsed {
		if !u {
			continue
		}
		t.insertState(oldKeys[i], oldStates[i])
	}
}

// insertState reinserts a whole state (rehash during grow / merge).
func (t *openTable) insertState(key uint32, st AggState) {
	if t.robin {
		i := t.fn.Hash(key) & t.mask
		var d uint16
		insKey, insSt := key, st
		pending := false
		for {
			if !t.used[i] {
				t.used[i] = true
				t.keys[i] = insKey
				t.states[i] = insSt
				t.dist[i] = d
				t.n++
				return
			}
			if !pending && t.keys[i] == insKey {
				t.states[i].Merge(insSt)
				return
			}
			if t.dist[i] < d {
				t.keys[i], insKey = insKey, t.keys[i]
				t.states[i], insSt = insSt, t.states[i]
				t.dist[i], d = d, t.dist[i]
				pending = true
			}
			i = (i + 1) & t.mask
			d++
		}
	}
	i := t.fn.Hash(key) & t.mask
	for t.used[i] {
		if t.keys[i] == key {
			t.states[i].Merge(st)
			return
		}
		i = (i + 1) & t.mask
	}
	t.used[i] = true
	t.keys[i] = key
	t.states[i] = st
	t.n++
}

func (t *openTable) ForEach(fn func(uint32, AggState)) {
	for i, u := range t.used {
		if u {
			fn(t.keys[i], t.states[i])
		}
	}
}
