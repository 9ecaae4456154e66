package spill

import (
	"encoding/binary"
	"unsafe"

	"dqo/internal/qerr"
	"dqo/internal/storage"
)

// frameHeader is the magic/length/checksum prefix of every frame.
const frameHeader = 12

func appendStr(buf []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(buf, uint32(len(s))), s...)
}

// words views a column's values as bytes in host byte order: the window a
// frame carries for the column, and the one a decoded frame is copied into.
func words(c *storage.Column) []byte {
	switch c.Kind() {
	case storage.KindUint32, storage.KindString:
		return asBytes(c.Uint32s())
	case storage.KindUint64:
		return asBytes(c.Uint64s())
	case storage.KindInt64:
		return asBytes(c.Int64s())
	case storage.KindFloat64:
		return asBytes(c.Float64s())
	}
	return nil
}

func asBytes[T uint32 | uint64 | int64 | float64](vals []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*int(unsafe.Sizeof(*new(T))))
}

// encodeFrame appends rel to buf as one frame: frameHeader bytes the caller
// fills in (magic/length/checksum), then the payload, each column's values as
// one window copied from the column in host byte order. dicts tracks which
// columns' dictionaries this run has already carried, so each dictionary is
// written once per run.
func encodeFrame(buf []byte, rel *storage.Relation, dicts *map[string]bool) ([]byte, error) {
	cols := rel.Columns()
	buf = append(buf, make([]byte, frameHeader)...)
	buf = appendStr(buf, rel.Name())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cols)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rel.NumRows()))
	for _, c := range cols {
		if !c.Kind().Valid() {
			return buf, qerr.New(qerr.ErrSpillIO, "cannot spill column %q of kind %v", c.Name(), c.Kind())
		}
		hasDict := byte(0)
		if c.Kind() == storage.KindString {
			if *dicts == nil {
				*dicts = make(map[string]bool)
			}
			if !(*dicts)[c.Name()] {
				hasDict = 1
				(*dicts)[c.Name()] = true
			}
		}
		buf = appendStr(append(buf, byte(c.Kind()), hasDict), c.Name())
		if hasDict == 1 {
			d := c.Dict()
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Len()))
			for i := 0; i < d.Len(); i++ {
				buf = appendStr(buf, d.Lookup(uint32(i)))
			}
		}
		buf = append(buf, words(c)...)
	}
	return buf, nil
}

// frameReader is a bounds-checked cursor over a frame payload; any
// truncation surfaces as a typed corrupt-frame error.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (f *frameReader) take(n int) []byte {
	if f.err != nil {
		return nil
	}
	if n < 0 || n > len(f.b)-f.off {
		f.err = qerr.New(qerr.ErrSpillIO, "corrupt spill frame: truncated payload (%d bytes, %d wanted at %d)", len(f.b), n, f.off)
		return nil
	}
	s := f.b[f.off : f.off+n]
	f.off += n
	return s
}

func (f *frameReader) u32() uint32 {
	s := f.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (f *frameReader) str() string {
	return string(f.take(int(f.u32())))
}

// remapCodes translates frame codes to pool codes in place and rejects a code
// outside the dictionary (a checksum cannot catch a frame that was written
// wrong, and a column of invalid codes would panic its first reader).
func remapCodes(codes, remap []uint32, dictLen int) error {
	if remap != nil {
		dictLen = len(remap)
	}
	for i, c := range codes {
		if int64(c) >= int64(dictLen) {
			return qerr.New(qerr.ErrSpillIO, "corrupt spill frame: code %d outside dictionary (%d)", c, dictLen)
		}
		if remap != nil {
			codes[i] = remap[c]
		}
	}
	return nil
}

// decodeFrame reconstructs a frame payload: as a fresh relation, or — given a
// caller-owned dst of the frame's schema — into rows [at, at+rows) of dst's
// columns. It returns the frame's row count. String columns are re-interned
// through the dicts pool so every batch of a column shares one dictionary
// with the original code assignment (see Run.Open); a dst string column must
// already carry the pool's dictionary. remaps carries frame-code → pool-code
// translations across a run's frames (later frames reference the dictionary of
// the first without re-carrying it); it stays empty when the pool already
// holds the original dictionaries. Each column's bytes are taken once and
// moved with one copy, and nothing is allocated before the payload is known to
// hold it.
func decodeFrame(payload []byte, dicts map[string]*storage.Dict, remaps map[string][]uint32, dst *storage.Relation, at int) (*storage.Relation, int, error) {
	f := &frameReader{b: payload}
	name := f.str()
	ncols, nrows := int(f.u32()), int(f.u32())
	if f.err != nil {
		return nil, 0, f.err
	}
	// A column costs at least its kind, dictionary flag and name length.
	if ncols < 0 || ncols > (len(payload)-f.off)/6 {
		return nil, 0, qerr.New(qerr.ErrSpillIO, "corrupt spill frame: %d columns in %d bytes", ncols, len(payload)-f.off)
	}
	if dst != nil && (dst.NumCols() != ncols || at < 0 || nrows > dst.NumRows()-at) {
		return nil, 0, qerr.New(qerr.ErrSpillIO, "spill frame (%d columns, %d rows) does not fit its destination (%d columns, %d rows from %d)",
			ncols, nrows, dst.NumCols(), dst.NumRows(), at)
	}
	var cols []*storage.Column
	if dst == nil {
		cols = make([]*storage.Column, ncols)
	}
	for ci := 0; ci < ncols; ci++ {
		hdr := f.take(2) // kind, dictionary flag
		cname := f.str()
		if f.err != nil {
			return nil, 0, f.err
		}
		kind := storage.Kind(hdr[0])
		if hdr[1] == 1 {
			nd := int(f.u32())
			if nd < 0 || nd > (len(payload)-f.off)/4 {
				return nil, 0, qerr.New(qerr.ErrSpillIO, "corrupt spill frame: dictionary of %d strings in %d bytes", nd, len(payload)-f.off)
			}
			pool := dicts[cname]
			if pool == nil {
				pool = storage.NewDict()
				dicts[cname] = pool
			}
			var remap []uint32 // frame code -> pool code, nil when identical
			for i := 0; i < nd; i++ {
				s := f.str()
				if f.err != nil {
					return nil, 0, f.err
				}
				code := pool.Intern(s)
				if code != uint32(i) && remap == nil {
					remap = make([]uint32, nd)
					for j := 0; j < i; j++ {
						remap[j] = uint32(j)
					}
				}
				if remap != nil {
					remap[i] = code
				}
			}
			if delete(remaps, cname); remap != nil {
				remaps[cname] = remap
			}
		}
		width := 8
		if kind == storage.KindUint32 || kind == storage.KindString {
			width = 4
		}
		b := f.take(width * nrows)
		if f.err != nil {
			return nil, 0, f.err
		}
		pool := dicts[cname]
		if kind == storage.KindString && pool == nil {
			return nil, 0, qerr.New(qerr.ErrSpillIO, "corrupt spill frame: string column %q before its dictionary", cname)
		}
		// The values land in rows [at, at+nrows) of the destination's column,
		// or of a fresh column now that the payload is known to hold them.
		var col *storage.Column
		if dst == nil {
			var err error
			if col, err = storage.NewColumn(nil, cname, kind, pool, nrows); err != nil {
				return nil, 0, qerr.New(qerr.ErrSpillIO, "corrupt spill frame: %v", err)
			}
			cols[ci] = col
		} else if col = dst.Columns()[ci]; col.Kind() != kind || col.Name() != cname || (kind == storage.KindString && col.Dict() != pool) {
			return nil, 0, qerr.New(qerr.ErrSpillIO, "spill frame column %d is %v %q, its destination %v %q (or of another dictionary)", ci, kind, cname, col.Kind(), col.Name())
		}
		copy(words(col)[width*at:], b)
		if kind == storage.KindString {
			if err := remapCodes(col.Uint32s()[at:at+nrows], remaps[cname], pool.Len()); err != nil {
				return nil, 0, err
			}
		}
	}
	if dst != nil {
		return dst, nrows, nil
	}
	rel, err := storage.NewRelation(name, cols...)
	if err != nil {
		return nil, 0, qerr.Wrap(qerr.ErrSpillIO, err)
	}
	return rel, nrows, nil
}
