package hashtable

import (
	"fmt"
	"unsafe"

	"dqo/internal/faultinject"
)

// GroupTable is a hash directory from uint32 grouping keys to dense group
// ids: the first distinct key it resolves is group 0, the next group 1, and
// so on. What a group accumulates is the caller's business — the grouping
// kernels keep one state array per aggregate argument, indexed by id, sized
// to what the statement asks — so a table stores keys and ids only, and one
// table layout serves every state layout. Implementations differ in
// collision-handling scheme — the "which hash table exactly?" dimension of
// the paper.
type GroupTable interface {
	// Resolve writes the group id of keys[i] to ids[i], in order, adding each
	// key it has not met before as the next group. ids must have room for
	// len(keys) entries. The hash function is resolved once per block of
	// rows.
	Resolve(keys []uint32, ids []int32)
	// Len returns the number of groups.
	Len() int
	// Groups returns the groups in the table's iteration order: their keys
	// and, when that order is not id order, their ids (nil ids means keys[i]
	// is group i). A chained table iterates in id order, which is first-seen
	// order; an open-addressing table iterates by slot, an order that depends
	// on the hash function, the capacity and the insertion history.
	Groups() (keys []uint32, ids []int32)
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

// NewGroupTable returns a group directory using the given scheme and hash
// function, sized once for about capacity distinct keys (0 for a minimal
// table that grows).
func NewGroupTable(s Scheme, f Func, capacity int) GroupTable {
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

// fireGrow is the growth fault point both table layouts pass through.
func fireGrow() {
	if err := faultinject.Fire(faultinject.PointHashtableGrow); err != nil {
		panic(err)
	}
}

// chainedTable is a node-based chained hash table: a bucket directory of
// int32 heads plus an entry arena. A group's id is its arena index, so the
// arena holds the groups in first-seen order, like the paper's observation
// that hash table output order "depends heavily on the hash function used".
type chainedTable struct {
	fn      Func
	mask    uint64
	heads   []int32 // bucket -> entry index, -1 if empty
	entries []chainedEntry
}

type chainedEntry struct {
	key  uint32
	next int32
}

func newChained(f Func, capacity int) *chainedTable {
	nb := nextPow2(capacity * 2)
	t := &chainedTable{fn: f, mask: uint64(nb - 1), heads: make([]int32, nb), entries: make([]chainedEntry, 0, capacity)}
	for i := range t.heads {
		t.heads[i] = -1
	}
	return t
}

func (t *chainedTable) Scheme() Scheme { return Chained }

func (t *chainedTable) Resolve(keys []uint32, ids []int32) {
	var hs [hashBlock]uint64
	for lo := 0; lo < len(keys); lo += hashBlock {
		blk := keys[lo:min(lo+hashBlock, len(keys))]
		out := ids[lo : lo+len(blk)]
		t.fn.HashBatch(hs[:], blk)
	rows:
		for i, k := range blk {
			for e := t.heads[hs[i]&t.mask]; e >= 0; e = t.entries[e].next {
				if t.entries[e].key == k {
					out[i] = e
					continue rows
				}
			}
			out[i] = t.insert(k, hs[i])
		}
	}
}

// insert adds key, whose hash is h, as the next group.
func (t *chainedTable) insert(key uint32, h uint64) int32 {
	if len(t.entries) >= len(t.heads) { // load factor 1: grow directory
		t.grow()
	}
	b := h & t.mask
	id := int32(len(t.entries))
	t.entries = append(t.entries, chainedEntry{key: key, next: t.heads[b]})
	t.heads[b] = id
	return id
}

func (t *chainedTable) MemBytes() int64 {
	return int64(len(t.heads))*4 + int64(cap(t.entries))*int64(unsafe.Sizeof(chainedEntry{}))
}

func (t *chainedTable) grow() {
	fireGrow()
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

func (t *chainedTable) Groups() ([]uint32, []int32) {
	keys := make([]uint32, len(t.entries))
	for i := range t.entries {
		keys[i] = t.entries[i].key
	}
	return keys, nil
}

// openTable is an open-addressing table with linear probing; with robin hood
// displacement enabled, entries are kept ordered by probe distance, bounding
// variance of lookup cost.
type openTable struct {
	fn         Func
	robin      bool
	mask       uint64
	keys       []uint32
	ids        []int32  // slot -> group id, -1 if empty
	dist       []uint16 // probe distance, robin hood only
	n          int
	maxLoadPct int
}

func newOpen(f Func, capacity int, robin bool) *openTable {
	t := &openTable{fn: f, robin: robin, maxLoadPct: 70}
	t.alloc(nextPow2(capacity * 2))
	return t
}

func (t *openTable) alloc(nb int) {
	t.mask = uint64(nb - 1)
	t.keys = make([]uint32, nb)
	t.ids = make([]int32, nb)
	for i := range t.ids {
		t.ids[i] = -1
	}
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

func (t *openTable) Resolve(keys []uint32, ids []int32) {
	var hs [hashBlock]uint64
	for lo := 0; lo < len(keys); lo += hashBlock {
		blk := keys[lo:min(lo+hashBlock, len(keys))]
		out := ids[lo : lo+len(blk)]
		t.fn.HashBatch(hs[:], blk)
		for i, k := range blk {
			if t.n*100 >= len(t.keys)*t.maxLoadPct {
				t.grow()
			}
			out[i] = t.place(k, hs[i], int32(t.n))
		}
	}
}

// place returns the id key holds, or puts key in as group id when the table
// does not hold it yet.
func (t *openTable) place(key uint32, h uint64, id int32) int32 {
	i := h & t.mask
	if !t.robin {
		for t.ids[i] >= 0 {
			if t.keys[i] == key {
				return t.ids[i]
			}
			i = (i + 1) & t.mask
		}
		t.keys[i], t.ids[i] = key, id
		t.n++
		return id
	}
	var d uint16
	insKey, insID := key, id
	pending := false // true once we are carrying a displaced entry
	for {
		if t.ids[i] < 0 {
			t.keys[i], t.ids[i], t.dist[i] = insKey, insID, d
			t.n++
			return id
		}
		if !pending && t.keys[i] == key {
			return t.ids[i]
		}
		if t.dist[i] < d { // rich entry: displace it, keep inserting
			t.keys[i], insKey = insKey, t.keys[i]
			t.ids[i], insID = insID, t.ids[i]
			t.dist[i], d = d, t.dist[i]
			pending = true
		}
		i = (i + 1) & t.mask
		d++
	}
}

func (t *openTable) MemBytes() int64 {
	per := int64(unsafe.Sizeof(uint32(0)) + unsafe.Sizeof(int32(0)))
	if t.robin {
		per += 2
	}
	return int64(len(t.keys)) * per
}

// grow doubles the table and puts the groups back in slot order, each under
// the id it already has.
func (t *openTable) grow() {
	fireGrow()
	oldKeys, oldIDs := t.keys, t.ids
	t.alloc(len(oldKeys) * 2)
	t.n = 0
	for i, id := range oldIDs {
		if id >= 0 {
			t.place(oldKeys[i], t.fn.Hash(oldKeys[i]), id)
		}
	}
}

func (t *openTable) Groups() ([]uint32, []int32) {
	keys := make([]uint32, 0, t.n)
	ids := make([]int32, 0, t.n)
	for i, id := range t.ids {
		if id >= 0 {
			keys = append(keys, t.keys[i])
			ids = append(ids, id)
		}
	}
	return keys, ids
}
