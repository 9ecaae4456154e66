package hashtable

import (
	"fmt"
	"unsafe"

	"dqo/internal/storage"
)

// SPH is a build-once static perfect hash directory from uint32 keys of a
// bounded domain [lo, lo+width) to row identifiers: the key, offset by the
// domain minimum, indexes the directory directly. Like Multi it is laid out
// by counting sort (count per slot, prefix sum, scatter), so a slot's rows
// are one contiguous run, Count is a subtraction, and Fill yields a key's
// rows in reverse build order. Ownership of the arrays is as for Multi.
type SPH struct {
	lo     uint32
	starts []int32 // slot s holds rows[starts[s]:starts[s+1]]
	rows   []int32
}

// SPHBytes is the heap footprint of an SPH directory of the given domain
// width over n rows: 4 B per slot plus 4 B per row.
func SPHBytes(width, n int) int64 { return int64(width+1)*4 + int64(n)*4 }

// BuildSPH builds the directory over keys, recording row i as i. A key
// outside [lo, lo+width) is an error. stop, when non-nil, is polled every
// buildPoll rows of both passes; its error aborts the build.
func BuildSPH(keys []uint32, lo uint32, width int, stop func() error) (*SPH, error) {
	d := &SPH{lo: lo}
	d.starts = storage.GetInt32s(width + 1)[:width+1]
	clear(d.starts)
	d.rows = storage.GetInt32s(len(keys))[:len(keys)] // every slot is written by the scatter
	for at := 0; at < len(keys); at += buildPoll {
		if stop != nil {
			if err := stop(); err != nil {
				d.Release()
				return nil, err
			}
		}
		for _, k := range keys[at:min(at+buildPoll, len(keys))] {
			slot := k - lo
			if uint64(slot) >= uint64(width) { // also catches k < lo (wraparound)
				d.Release()
				return nil, fmt.Errorf("hashtable: SPH build key %d outside declared domain [%d,%d]", k, lo, uint64(lo)+uint64(width)-1)
			}
			d.starts[slot]++
		}
	}
	// Inclusive prefix sum, then scatter each slot's cursor downwards — see
	// BuildMulti.
	var run int32
	for s := 0; s < width; s++ {
		run += d.starts[s]
		d.starts[s] = run
	}
	d.starts[width] = run
	for at := 0; at < len(keys); at += buildPoll {
		if stop != nil {
			if err := stop(); err != nil {
				d.Release()
				return nil, err
			}
		}
		for i, k := range keys[at:min(at+buildPoll, len(keys))] {
			slot := k - lo
			d.starts[slot]--
			d.rows[d.starts[slot]] = int32(at + i)
		}
	}
	return d, nil
}

// Release hands the directory's arrays back to the scratch pool — see
// Multi.Release.
func (d *SPH) Release() {
	storage.PutInt32s(d.starts)
	storage.PutInt32s(d.rows)
	d.starts, d.rows = nil, nil
}

// Count returns the number of rows built under key; keys outside the domain
// have none.
func (d *SPH) Count(key uint32) int {
	slot := key - d.lo
	if uint64(slot) >= uint64(len(d.starts)-1) {
		return 0
	}
	return int(d.starts[slot+1] - d.starts[slot])
}

// Fill writes the rows built under key to the front of dst, in reverse build
// order, and returns how many it wrote. dst must have room for Count(key).
func (d *SPH) Fill(key uint32, dst []int32) int {
	slot := key - d.lo
	if uint64(slot) >= uint64(len(d.starts)-1) {
		return 0
	}
	return copy(dst, d.rows[d.starts[slot]:d.starts[slot+1]])
}

// CountBatch returns the total number of rows built under keys[0],
// keys[1], … (a key probed twice counts twice).
func (d *SPH) CountBatch(keys []uint32) int {
	n := 0
	for _, k := range keys {
		n += d.Count(k)
	}
	return n
}

// CountEach is CountBatch that also keeps what it counted — see
// Multi.CountEach.
func (d *SPH) CountEach(keys []uint32, counts []int32) int {
	n := 0
	for i, k := range keys {
		c := d.Count(k)
		counts[i] = int32(c)
		n += c
	}
	return n
}

// FillBatch writes the join pairs of probing keys in order — see
// Multi.FillBatch. build and probe are windows the pairs are written to from
// index 0; past the pairs it returns, FillBatch may leave scratch anywhere
// inside them, and it never writes outside them. Should the keys have more
// pairs than the windows hold, it writes those that fit and returns the full
// number, so that a caller comparing it with CountBatch sees the surplus.
//
// Every key writes its first pair at the cursor, hit or miss, and advances
// the cursor by its slot's row count: no branch asks whether a key hit, and a
// miss's write is scratch that the next pair overwrites. Only a slot with two
// rows or more enters the loop that writes its further rows; on a directory
// built over a key (every slot one row or none) that loop's test is always
// false and predicted so.
//
// The loop reads and writes through raw pointers: with the two windows, the
// directory, the rows and the cursor all live, bounds-checked slices leave
// too few registers, and the cursor (on which every write depends) is spilled
// to the stack on each key. Every index is in range by construction. A key
// outside the domain reads slot 0 (slot <= width-1, so slot+1 < len(starts))
// with its count multiplied by 0. A slot's first row index is clamped to
// len(rows)-1, which only a miss past the last occupied slot reaches. The
// cursor is below the window's end at each write, and a slot's further rows
// are cut at the window's end. build and probe have one length, and are the
// directory's windows: the directory holds at least one row.
func (d *SPH) FillBatch(keys []uint32, first int32, build, probe []int32) int {
	switch {
	case len(d.rows) == 0:
		return 0
	case build == nil:
		// Probe rows alone. The joins ask CountEach and expand the counts
		// instead, so this path is not tuned.
		n := 0
		for i, k := range keys {
			c := d.Count(k)
			for j := n; j < min(n+c, len(probe)); j++ {
				probe[j] = first + int32(i)
			}
			n += c
		}
		return n
	case probe == nil:
		probe = build // the build row is written second, over the probe row
	default:
		end := min(len(build), len(probe))
		build, probe = build[:end], probe[:end]
	}
	wm1 := uint32(len(d.starts) - 2)
	nr, lo, end := int32(len(d.rows)), d.lo, len(build)
	sp, rp := unsafe.Pointer(&d.starts[0]), unsafe.Pointer(&d.rows[0])
	bp, pp := unsafe.Pointer(unsafe.SliceData(build)), unsafe.Pointer(unsafe.SliceData(probe))
	n := 0
	for i, k := range keys {
		if n >= end { // the window is full: the keys left should all miss
			return n + d.CountBatch(keys[i:])
		}
		slot := k - lo
		in := b2i(slot <= wm1) // 0 also for k < lo (wraparound)
		slot &= -uint32(in)
		a := *at(sp, int(slot))
		c := int(*at(sp, int(slot)+1)-a) * in
		*at(pp, n) = first + int32(i)
		*at(bp, n) = *at(rp, int(a-int32(b2i(a == nr))))
		for j, m := 1, min(c, end-n); j < m; j++ {
			*at(pp, n+j) = first + int32(i)
			*at(bp, n+j) = *at(rp, int(a)+j)
		}
		n += c
	}
	return n
}

// at is the address of the i-th int32 from p.
func at(p unsafe.Pointer, i int) *int32 { return (*int32)(unsafe.Add(p, uintptr(i)*4)) }

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag read
// (SETcc), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// MemBytes returns the directory's heap footprint in bytes.
func (d *SPH) MemBytes() int64 { return SPHBytes(len(d.starts)-1, len(d.rows)) }
