package hashtable

import (
	"fmt"

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
// Multi.FillBatch. Most keys hold one row or none, so a key's rows move in a
// loop: a copy call per key costs more than the row it moves.
func (d *SPH) FillBatch(keys []uint32, first int32, build, probe []int32) int {
	slots := uint64(len(d.starts) - 1)
	n := 0
	for i, k := range keys {
		slot := k - d.lo
		if uint64(slot) >= slots {
			continue
		}
		lo, hi := d.starts[slot], d.starts[slot+1]
		if build != nil {
			for j, r := range d.rows[lo:hi] {
				build[n+j] = r
			}
		}
		if probe != nil {
			for j := n; j < n+int(hi-lo); j++ {
				probe[j] = first + int32(i)
			}
		}
		n += int(hi - lo)
	}
	return n
}

// MemBytes returns the directory's heap footprint in bytes.
func (d *SPH) MemBytes() int64 { return SPHBytes(len(d.starts)-1, len(d.rows)) }
