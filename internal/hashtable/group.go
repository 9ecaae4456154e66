package hashtable

import (
	"unsafe"

	"dqo/internal/faultinject"
)

// GroupTable is a hash directory from uint32 grouping keys to dense group
// ids: the first distinct key it resolves is group 0, the next group 1, and
// so on. What a group accumulates is the caller's business — the grouping
// kernels keep one state array per aggregate argument, indexed by id, sized
// to what the statement asks — so a table stores keys and ids only, and one
// table layout serves every state layout.
//
// The table is node-based and chained, the stand-in for the paper's
// std::unordered_map: a bucket directory of int32 heads plus an entry arena.
// A group's id is its arena index, so the arena holds the groups in
// first-seen order, like the paper's observation that hash table output
// order "depends heavily on the hash function used".
type GroupTable struct {
	fn      Func
	mask    uint64
	heads   []int32 // bucket -> entry index, -1 if empty
	entries []chainedEntry
}

type chainedEntry struct {
	key  uint32
	next int32
}

// NewGroupTable returns a group directory using hash function f, sized once
// for about capacity distinct keys (0 for a minimal table that grows).
func NewGroupTable(f Func, capacity int) *GroupTable {
	nb := nextPow2(capacity * 2)
	t := &GroupTable{fn: f, mask: uint64(nb - 1), heads: make([]int32, nb), entries: make([]chainedEntry, 0, capacity)}
	for i := range t.heads {
		t.heads[i] = -1
	}
	return t
}

// nextPow2 returns the smallest power of two >= n, at least 8.
func nextPow2(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// Resolve writes the group id of keys[i] to ids[i], in order, adding each
// key it has not met before as the next group. ids must have room for
// len(keys) entries. The hash function is resolved once per block of rows.
func (t *GroupTable) Resolve(keys []uint32, ids []int32) {
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
func (t *GroupTable) insert(key uint32, h uint64) int32 {
	if len(t.entries) >= len(t.heads) { // load factor 1: grow directory
		t.grow()
	}
	b := h & t.mask
	id := int32(len(t.entries))
	t.entries = append(t.entries, chainedEntry{key: key, next: t.heads[b]})
	t.heads[b] = id
	return id
}

// MemBytes returns the table's current heap footprint in bytes (directory
// plus entry storage), for memory-budget accounting.
func (t *GroupTable) MemBytes() int64 {
	return int64(len(t.heads))*4 + int64(cap(t.entries))*int64(unsafe.Sizeof(chainedEntry{}))
}

func (t *GroupTable) grow() {
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

// Len returns the number of groups.
func (t *GroupTable) Len() int { return len(t.entries) }

// Groups returns the groups' keys in id order, which is first-seen order:
// keys[i] is group i.
func (t *GroupTable) Groups() []uint32 {
	keys := make([]uint32, len(t.entries))
	for i := range t.entries {
		keys[i] = t.entries[i].key
	}
	return keys
}
