package hashtable

import (
	"unsafe"

	"dqo/internal/storage"
)

// Multi is a build-once multimap from uint32 keys to row identifiers, the
// build side of hash joins. Every caller knows all its keys up front, so the
// table is laid out by counting sort on the bucket: one pass hashes every key,
// notes its bucket and counts rows per bucket, a prefix sum turns the counts
// into bucket windows, and a second pass scatters (key, row) pairs by the
// noted buckets into one arena in which each bucket's rows are contiguous. A
// probe reads one directory slot and then one contiguous run, instead of
// chasing a link per match.
//
// Emission-order contract: Fill yields the rows of a key in reverse build
// order (the last row built under the key comes first) — the order the
// chained table this replaces produced, which the spill and AV join twins
// reproduce.
//
// Ownership: the directory and the arena come from the storage scratch pool.
// Whoever built the table may Release it once no probe can be running; a
// table that is kept (a materialised or adopted Algorithmic View) is simply
// never released. A built table is never written.
type Multi struct {
	fn      Func
	mask    uint64
	starts  []int32 // bucket b holds entries[starts[b]:starts[b+1]]
	entries []multiEntry
	arena   []int32 // the pooled words entries is a view of
}

type multiEntry struct {
	key uint32
	row int32
}

// buildPoll is the row interval at which the build passes poll stop.
const buildPoll = 1 << 13

// MultiBytes is the heap footprint of a Multi over n rows, so callers can
// reserve it before building: 4 B per bucket (at most 2n of them) plus 8 B
// per row. The build's bucket notes (4 B per row) are scratch that is back in
// the pool before the table is probed, and are not part of it.
func MultiBytes(n int) int64 {
	return int64(nextPow2(n)+1)*4 + int64(n)*int64(unsafe.Sizeof(multiEntry{}))
}

// BuildMulti builds the table over keys, recording key i under row i. stop,
// when non-nil, is polled every buildPoll rows of both passes; its error
// aborts the build.
func BuildMulti(f Func, keys []uint32, stop func() error) (*Multi, error) {
	n := len(keys)
	nb := nextPow2(n)
	m := &Multi{fn: f, mask: uint64(nb - 1)}
	m.starts = storage.GetInt32s(nb + 1)[:nb+1]
	clear(m.starts)
	if n > 0 {
		// Two words per entry, every one of them written by the scatter.
		m.arena = storage.GetInt32s(2 * n)[:2*n]
		m.entries = unsafe.Slice((*multiEntry)(unsafe.Pointer(&m.arena[0])), n)
	}
	// bucket[i] is row i's bucket, kept from the count pass so that the
	// scatter does not hash the key again.
	bucket := storage.GetInt32s(n)[:n]
	defer storage.PutInt32s(bucket)
	var hs [hashBlock]uint64
	for lo := 0; lo < n; lo += buildPoll {
		if stop != nil {
			if err := stop(); err != nil {
				m.Release()
				return nil, err
			}
		}
		hi := min(lo+buildPoll, n)
		for o := lo; o < hi; o += hashBlock {
			blk := keys[o:min(o+hashBlock, hi)]
			f.HashBatch(hs[:], blk)
			bs := bucket[o : o+len(blk)]
			for i, h := range hs[:len(blk)] {
				b := int32(h & m.mask)
				bs[i] = b
				m.starts[b]++
			}
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
	for lo := 0; lo < n; lo += buildPoll {
		if stop != nil {
			if err := stop(); err != nil {
				m.Release()
				return nil, err
			}
		}
		for i := lo; i < min(lo+buildPoll, n); i++ {
			b := bucket[i]
			at := m.starts[b] - 1
			m.starts[b] = at
			m.entries[at] = multiEntry{key: keys[i], row: int32(i)}
		}
	}
	return m, nil
}

// Release hands the table's arrays back to the scratch pool. Only the builder
// of a table nobody else holds may call it, and the table must not be used
// afterwards.
func (m *Multi) Release() {
	storage.PutInt32s(m.starts)
	storage.PutInt32s(m.arena)
	m.starts, m.entries, m.arena = nil, nil, nil
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

// CountEach is CountBatch that also keeps what it counted: counts[i] is the
// number of rows built under keys[i]. A probe that wants only its own side's
// row ids expands these counts and does not walk the buckets a second time.
func (m *Multi) CountEach(keys []uint32, counts []int32) int {
	var hs [hashBlock]uint64
	var lo, hi [hashBlock]int32
	n := 0
	for o := 0; o < len(keys); o += hashBlock {
		blk := keys[o:min(o+hashBlock, len(keys))]
		m.window(blk, &hs, &lo, &hi)
		cs := counts[o : o+len(blk)]
		for i, k := range blk {
			c := int32(0)
			for _, e := range m.entries[lo[i]:hi[i]] {
				if e.key == k {
					c++
				}
			}
			cs[i] = c
			n += int(c)
		}
	}
	return n
}

// CountRows is the count seen from the build side: it sets counts[r], for
// every build row r, to how many of keys hold r's key. A join whose consumer
// reads only the build side's columns, and folds a row that joins m times as
// m rows, needs these counts and not the pairs. counts holds one entry per
// row recorded (rows are recorded as their index). stop, when non-nil, is
// polled every buildPoll keys; its error aborts the count.
func (m *Multi) CountRows(keys []uint32, counts []int32, stop func() error) error {
	clear(counts)
	var hs [hashBlock]uint64
	var lo, hi [hashBlock]int32
	for at := 0; at < len(keys); at += buildPoll {
		if stop != nil {
			if err := stop(); err != nil {
				return err
			}
		}
		end := min(at+buildPoll, len(keys))
		for o := at; o < end; o += hashBlock {
			blk := keys[o:min(o+hashBlock, end)]
			m.window(blk, &hs, &lo, &hi)
			for i, k := range blk {
				for _, e := range m.entries[lo[i]:hi[i]] {
					if e.key == k {
						counts[e.row]++
					}
				}
			}
		}
	}
	return nil
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
