package hashtable

import "unsafe"

// Multi is a build-once multimap from uint32 keys to row identifiers, the
// build side of hash joins. Every caller knows all its keys up front, so the
// table is laid out by counting sort on the bucket: one pass counts rows per
// bucket, a prefix sum turns the counts into bucket windows, and a second
// pass scatters (key, row) pairs into one arena in which each bucket's rows
// are contiguous. A probe reads one directory slot and then one contiguous
// run, instead of chasing a link per match.
//
// Emission-order contract: Fill yields the rows of a key in reverse build
// order (the last row built under the key comes first) — the order the
// chained table this replaces produced, which the parallel, spill and AV
// join twins all reproduce.
type Multi struct {
	fn      Func
	mask    uint64
	starts  []int32 // bucket b holds entries[starts[b]:starts[b+1]]
	entries []multiEntry
}

type multiEntry struct {
	key uint32
	row int32
}

// buildPoll is the row interval at which BuildMulti polls stop.
const buildPoll = 1 << 13

// MultiBytes is the heap footprint of a Multi over n rows, so callers can
// reserve it before building: 4 B per bucket (at most 2n of them) plus 8 B
// per row.
func MultiBytes(n int) int64 {
	return int64(nextPow2(n)+1)*4 + int64(n)*int64(unsafe.Sizeof(multiEntry{}))
}

// BuildMulti builds the table over keys. Row i is recorded as rows[i], or as
// i itself when rows is nil. stop, when non-nil, is polled every buildPoll
// rows of both passes; its error aborts the build.
func BuildMulti(f Func, keys []uint32, rows []int32, stop func() error) (*Multi, error) {
	nb := nextPow2(len(keys))
	m := &Multi{
		fn: f, mask: uint64(nb - 1),
		starts:  make([]int32, nb+1),
		entries: make([]multiEntry, len(keys)),
	}
	var hs [hashBlock]uint64
	poll := func(lo int) error {
		if stop != nil && lo%buildPoll == 0 {
			return stop()
		}
		return nil
	}
	for lo := 0; lo < len(keys); lo += hashBlock {
		if err := poll(lo); err != nil {
			return nil, err
		}
		blk := keys[lo:min(lo+hashBlock, len(keys))]
		f.HashBatch(hs[:], blk)
		for _, h := range hs[:len(blk)] {
			m.starts[h&m.mask]++
		}
	}
	// Inclusive prefix sum: starts[b] is the end of bucket b. The scatter
	// below walks each bucket's cursor down from there, so it finishes at the
	// bucket's start and the first row built lands last.
	var run int32
	for b := 0; b < nb; b++ {
		run += m.starts[b]
		m.starts[b] = run
	}
	m.starts[nb] = run
	for lo := 0; lo < len(keys); lo += hashBlock {
		if err := poll(lo); err != nil {
			return nil, err
		}
		blk := keys[lo:min(lo+hashBlock, len(keys))]
		f.HashBatch(hs[:], blk)
		for i, k := range blk {
			b := hs[i] & m.mask
			m.starts[b]--
			row := int32(lo + i)
			if rows != nil {
				row = rows[lo+i]
			}
			m.entries[m.starts[b]] = multiEntry{key: k, row: row}
		}
	}
	return m, nil
}

// Count returns the number of rows built under key.
func (m *Multi) Count(key uint32) int {
	b := m.fn.Hash(key) & m.mask
	n := 0
	for _, e := range m.entries[m.starts[b]:m.starts[b+1]] {
		if e.key == key {
			n++
		}
	}
	return n
}

// Fill writes the rows built under key to the front of dst, in reverse build
// order, and returns how many it wrote. dst must have room for Count(key).
func (m *Multi) Fill(key uint32, dst []int32) int {
	b := m.fn.Hash(key) & m.mask
	n := 0
	for _, e := range m.entries[m.starts[b]:m.starts[b+1]] {
		if e.key == key {
			dst[n] = e.row
			n++
		}
	}
	return n
}

// CountBatch returns the total number of rows built under keys[0],
// keys[1], … (a key probed twice counts twice). It stages each block of
// keys — hash all, then read all directory slots, then scan all buckets — so
// the block's cache misses overlap instead of queueing behind each other.
func (m *Multi) CountBatch(keys []uint32) int {
	var hs [hashBlock]uint64
	var lo, hi [hashBlock]int32
	n := 0
	for o := 0; o < len(keys); o += hashBlock {
		blk := keys[o:min(o+hashBlock, len(keys))]
		m.window(blk, &hs, &lo, &hi)
		for i, k := range blk {
			for _, e := range m.entries[lo[i]:hi[i]] {
				if e.key == k {
					n++
				}
			}
		}
	}
	return n
}

// FillBatch writes the join pairs of probing keys in order: for each keys[i]
// its build rows (as Fill yields them) to build and the probe row first+i
// alongside to probe, both from index 0. It returns the number of pairs;
// build and probe must have room for CountBatch(keys), or be nil: a nil side
// is not written.
func (m *Multi) FillBatch(keys []uint32, first int32, build, probe []int32) int {
	// A side that is not wanted is written to one scratch slot (index n&0)
	// instead of being tested for per match.
	var unwanted [1]int32
	bmask, pmask := -1, -1
	if build == nil {
		build, bmask = unwanted[:], 0
	}
	if probe == nil {
		probe, pmask = unwanted[:], 0
	}
	var hs [hashBlock]uint64
	var lo, hi [hashBlock]int32
	n := 0
	for o := 0; o < len(keys); o += hashBlock {
		blk := keys[o:min(o+hashBlock, len(keys))]
		m.window(blk, &hs, &lo, &hi)
		for i, k := range blk {
			for _, e := range m.entries[lo[i]:hi[i]] {
				if e.key == k {
					build[n&bmask] = e.row
					probe[n&pmask] = first + int32(o+i)
					n++
				}
			}
		}
	}
	return n
}

// window hashes a block of at most hashBlock keys and looks up each key's
// bucket window entries[lo[i]:hi[i]].
func (m *Multi) window(blk []uint32, hs *[hashBlock]uint64, lo, hi *[hashBlock]int32) {
	m.fn.HashBatch(hs[:], blk)
	for i := range blk {
		b := hs[i] & m.mask
		lo[i], hi[i] = m.starts[b], m.starts[b+1]
	}
}

// Len returns the number of rows built.
func (m *Multi) Len() int { return len(m.entries) }

// MemBytes returns the table's heap footprint in bytes (directory plus
// arena), for memory-budget accounting.
func (m *Multi) MemBytes() int64 { return MultiBytes(len(m.entries)) }
