package storage

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements compressed column segments: dictionary-RLE,
// bit-packing, and frame-of-reference encodings over uint32 payloads
// (plain uint32 columns and string columns' dictionary codes), each split
// into fixed-size segments carrying min/max zone metadata. Kernels operate
// directly on the encoded payload — range predicates compare in code/delta
// space and skip whole segments via the zone maps, RLE aggregation touches
// each run once — and a lazy decode fallback keeps every existing kernel
// working unchanged on encoded columns.

// Encoding identifies a column segment encoding.
type Encoding uint8

// Column segment encodings. EncDictRLE run-length-encodes the value (or
// dictionary-code) stream; EncBitPack packs values at the per-segment
// minimal bit width; EncFoR subtracts a per-segment reference (the segment
// minimum) before packing, so clustered value ranges pack narrow even when
// the absolute values are large.
const (
	EncNone Encoding = iota
	EncDictRLE
	EncBitPack
	EncFoR
)

// String returns the encoding name, as EXPLAIN prints it on the optimiser's
// compressed granules (e.g. "CompressedScan(S) [for]").
func (e Encoding) String() string {
	switch e {
	case EncDictRLE:
		return "rle"
	case EncBitPack:
		return "bitpack"
	case EncFoR:
		return "for"
	default:
		return "none"
	}
}

// DefaultSegmentRows is the segment size used when the caller does not
// choose one. It matches the default morsel size, so one morsel never spans
// more than two segments.
const DefaultSegmentRows = 4096

// Segment is one fixed-size row range of an encoded column, with its zone
// map (min/max over the range) and the position of its payload.
type Segment struct {
	Lo, Hi   int    // row range [Lo, Hi)
	Min, Max uint32 // zone map over the range
	Off      int    // EncDictRLE: first run index; packed: first word index
	N        int    // EncDictRLE: run count
	Ref      uint32 // frame of reference (EncBitPack: 0)
	Width    uint8  // bits per packed value (0: every value equals Ref)
}

// segHeaderBytes approximates the in-memory footprint of one Segment.
const segHeaderBytes = 48

// Encoded is an immutable encoded column payload. Runs never cross segment
// boundaries, so every segment's payload is self-contained and zone-map
// pruning never splits a run.
type Encoded struct {
	enc     Encoding
	rows    int
	segRows int
	segs    []Segment

	// EncDictRLE payload: value, length, and global end row per run.
	runVals []uint32
	runLens []uint32
	runEnds []uint32

	// Packed payload (EncBitPack/EncFoR): each segment's values packed
	// LSB-first at the per-segment width, starting on a word boundary.
	words []uint64
}

// EncodeUint32 encodes vals with the given encoding and segment size
// (segRows <= 0 selects DefaultSegmentRows). The input slice is not
// retained.
func EncodeUint32(vals []uint32, enc Encoding, segRows int) (*Encoded, error) {
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	switch enc {
	case EncDictRLE:
		return encodeRLE(vals, segRows), nil
	case EncBitPack:
		return encodePacked(vals, segRows, false), nil
	case EncFoR:
		return encodePacked(vals, segRows, true), nil
	default:
		return nil, fmt.Errorf("storage: cannot encode with %s", enc)
	}
}

// EncodeAuto encodes vals with whichever encoding yields the smallest
// payload, or returns nil when no encoding beats the plain 4-byte-per-row
// representation.
func EncodeAuto(vals []uint32, segRows int) *Encoded {
	var best *Encoded
	for _, enc := range []Encoding{EncDictRLE, EncFoR, EncBitPack} {
		e, err := EncodeUint32(vals, enc, segRows)
		if err != nil {
			continue
		}
		if best == nil || e.EncodedBytes() < best.EncodedBytes() {
			best = e
		}
	}
	if best == nil || best.EncodedBytes() >= int64(len(vals))*4 {
		return nil
	}
	return best
}

func newEncoded(enc Encoding, rows, segRows int) *Encoded {
	nsegs := (rows + segRows - 1) / segRows
	return &Encoded{enc: enc, rows: rows, segRows: segRows, segs: make([]Segment, 0, nsegs)}
}

func encodeRLE(vals []uint32, segRows int) *Encoded {
	e := newEncoded(EncDictRLE, len(vals), segRows)
	for lo := 0; lo < len(vals); lo += segRows {
		hi := lo + segRows
		if hi > len(vals) {
			hi = len(vals)
		}
		s := Segment{Lo: lo, Hi: hi, Off: len(e.runVals), Min: vals[lo], Max: vals[lo]}
		runStart := lo
		for i := lo + 1; i <= hi; i++ {
			if i < hi && vals[i] == vals[runStart] {
				continue
			}
			v := vals[runStart]
			e.runVals = append(e.runVals, v)
			e.runLens = append(e.runLens, uint32(i-runStart))
			e.runEnds = append(e.runEnds, uint32(i))
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
			runStart = i
		}
		s.N = len(e.runVals) - s.Off
		e.segs = append(e.segs, s)
	}
	return e
}

func encodePacked(vals []uint32, segRows int, frameOfRef bool) *Encoded {
	enc := EncBitPack
	if frameOfRef {
		enc = EncFoR
	}
	e := newEncoded(enc, len(vals), segRows)
	for lo := 0; lo < len(vals); lo += segRows {
		hi := lo + segRows
		if hi > len(vals) {
			hi = len(vals)
		}
		mn, mx := vals[lo], vals[lo]
		for _, v := range vals[lo+1 : hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		s := Segment{Lo: lo, Hi: hi, Min: mn, Max: mx, Off: len(e.words)}
		if frameOfRef {
			s.Ref = mn
		}
		s.Width = uint8(bits.Len32(mx - s.Ref))
		if s.Width > 0 {
			nbits := (hi - lo) * int(s.Width)
			e.words = append(e.words, make([]uint64, (nbits+63)/64)...)
			w := int(s.Width)
			for i := lo; i < hi; i++ {
				d := uint64(vals[i] - s.Ref)
				bit := (i - lo) * w
				word := s.Off + bit>>6
				sh := uint(bit & 63)
				e.words[word] |= d << sh
				if sh+uint(w) > 64 {
					e.words[word+1] |= d >> (64 - sh)
				}
			}
		}
		e.segs = append(e.segs, s)
	}
	return e
}

// Encoding returns the payload's encoding.
func (e *Encoded) Encoding() Encoding { return e.enc }

// Rows returns the number of encoded rows.
func (e *Encoded) Rows() int { return e.rows }

// NumSegments returns the number of segments.
func (e *Encoded) NumSegments() int { return len(e.segs) }

// NumRuns returns the total run count (0 for packed encodings).
func (e *Encoded) NumRuns() int { return len(e.runVals) }

// EncodedBytes returns the in-memory footprint of the encoded payload,
// including segment headers.
func (e *Encoded) EncodedBytes() int64 {
	n := int64(len(e.segs)) * segHeaderBytes
	n += int64(len(e.runVals)+len(e.runLens)+len(e.runEnds)) * 4
	n += int64(len(e.words)) * 8
	return n
}

// EncodedBytesRange returns the footprint attributable to a row-range view
// [lo, hi): every intersecting segment is charged whole, since a view pins
// its segments' payload regardless of how many of their rows it covers.
func (e *Encoded) EncodedBytesRange(lo, hi int) int64 {
	if hi > e.rows {
		hi = e.rows
	}
	if lo >= hi {
		return 0
	}
	var n int64
	for si := lo / e.segRows; si <= (hi-1)/e.segRows; si++ {
		s := &e.segs[si]
		n += segHeaderBytes
		if e.enc == EncDictRLE {
			n += int64(s.N) * 12
		} else if s.Width > 0 {
			nbits := (s.Hi - s.Lo) * int(s.Width)
			n += int64((nbits+63)/64) * 8
		}
	}
	return n
}

// Ratio returns the compression ratio: plain bytes over encoded bytes.
func (e *Encoded) Ratio() float64 {
	enc := e.EncodedBytes()
	if enc == 0 {
		return 1
	}
	return float64(e.rows) * 4 / float64(enc)
}

// packedAt extracts the packed delta of row i from segment s (s.Width > 0).
func (e *Encoded) packedAt(s *Segment, i int) uint32 {
	w := int(s.Width)
	bit := (i - s.Lo) * w
	word := s.Off + bit>>6
	sh := uint(bit & 63)
	v := e.words[word] >> sh
	if sh+uint(w) > 64 {
		v |= e.words[word+1] << (64 - sh)
	}
	return uint32(v & (1<<uint(w) - 1))
}

// runStart returns the global start row of run r.
func (e *Encoded) runStart(r int) int {
	if r == 0 {
		return 0
	}
	return int(e.runEnds[r-1])
}

// runAt returns the run index covering row i of an EncDictRLE payload.
func (e *Encoded) runAt(i int) int {
	s := &e.segs[i/e.segRows]
	return s.Off + sort.Search(s.N, func(k int) bool { return int(e.runEnds[s.Off+k]) > i })
}

// At returns the decoded value of row i.
func (e *Encoded) At(i int) uint32 {
	if e.enc == EncDictRLE {
		return e.runVals[e.runAt(i)]
	}
	s := &e.segs[i/e.segRows]
	if s.Width == 0 {
		return s.Ref
	}
	return s.Ref + e.packedAt(s, i)
}

// DecodeRange decodes rows [lo, hi) into dst, which must have length hi-lo.
func (e *Encoded) DecodeRange(lo, hi int, dst []uint32) {
	if hi <= lo {
		return
	}
	if e.enc == EncDictRLE {
		for r := e.runAt(lo); r < len(e.runVals); r++ {
			rs, re := e.runStart(r), int(e.runEnds[r])
			if rs >= hi {
				break
			}
			if rs < lo {
				rs = lo
			}
			if re > hi {
				re = hi
			}
			v := e.runVals[r]
			for i := rs; i < re; i++ {
				dst[i-lo] = v
			}
		}
		return
	}
	for si := lo / e.segRows; si <= (hi-1)/e.segRows; si++ {
		s := &e.segs[si]
		wlo, whi := s.Lo, s.Hi
		if wlo < lo {
			wlo = lo
		}
		if whi > hi {
			whi = hi
		}
		if s.Width == 0 {
			for i := wlo; i < whi; i++ {
				dst[i-lo] = s.Ref
			}
			continue
		}
		for i := wlo; i < whi; i++ {
			dst[i-lo] = s.Ref + e.packedAt(s, i)
		}
	}
}

// Gather writes the decoded values of rows base+idx[k] into out[k]. A run
// cursor makes ascending index lists (selection vectors) cheap on RLE
// payloads; arbitrary orders fall back to per-row segment lookup.
func (e *Encoded) Gather(base int, idx []int32, out []uint32) {
	if e.enc != EncDictRLE {
		for k, j := range idx {
			out[k] = e.At(base + int(j))
		}
		return
	}
	r := -1
	for k, j := range idx {
		i := base + int(j)
		if r < 0 || i < e.runStart(r) || i >= int(e.runEnds[r]) {
			// Ascending lists usually land in the same or the next run.
			if r >= 0 && r+1 < len(e.runVals) && i >= int(e.runEnds[r]) && i < int(e.runEnds[r+1]) {
				r++
			} else {
				r = e.runAt(i)
			}
		}
		out[k] = e.runVals[r]
	}
}

// SelectRange appends to dst the row indexes i in [lo, hi) whose value v
// satisfies plo <= v <= phi, evaluating the predicate directly on the
// encoded payload: segments whose zone map is disjoint from [plo, phi] are
// skipped whole, fully-covered segments emit without touching the payload,
// RLE segments decide once per run, and packed segments compare in delta
// space against bounds translated by the frame of reference. It returns the
// extended dst and the number of segments answered by the zone map alone
// (skipped or fully taken).
func (e *Encoded) SelectRange(lo, hi int, plo, phi uint32, dst []int32) ([]int32, int) {
	if hi > e.rows {
		hi = e.rows
	}
	zoneOnly := 0
	if lo >= hi || plo > phi {
		return dst, zoneOnly
	}
	for si := lo / e.segRows; si <= (hi-1)/e.segRows; si++ {
		s := &e.segs[si]
		wlo, whi := s.Lo, s.Hi
		if wlo < lo {
			wlo = lo
		}
		if whi > hi {
			whi = hi
		}
		if s.Max < plo || s.Min > phi {
			zoneOnly++
			continue
		}
		if s.Min >= plo && s.Max <= phi {
			zoneOnly++
			for i := wlo; i < whi; i++ {
				dst = append(dst, int32(i))
			}
			continue
		}
		if e.enc == EncDictRLE {
			for r := s.Off; r < s.Off+s.N; r++ {
				v := e.runVals[r]
				if v < plo || v > phi {
					continue
				}
				rs, re := e.runStart(r), int(e.runEnds[r])
				if rs < wlo {
					rs = wlo
				}
				if re > whi {
					re = whi
				}
				for i := rs; i < re; i++ {
					dst = append(dst, int32(i))
				}
			}
			continue
		}
		// Packed: compare in delta space. phi >= s.Min >= s.Ref here, so the
		// translated upper bound never underflows.
		var dlo uint32
		if plo > s.Ref {
			dlo = plo - s.Ref
		}
		dhi := phi - s.Ref
		for i := wlo; i < whi; i++ {
			if d := e.packedAt(s, i); d >= dlo && d <= dhi {
				dst = append(dst, int32(i))
			}
		}
	}
	return dst, zoneOnly
}

// PredStats reports, without touching the payload, how the zone maps would
// partition a [plo, phi] range predicate over the whole column: segments
// skipped outright, segments fully covered (emitted without decoding), and
// segments needing per-run or per-value work — with work counting the
// encoded units (runs for RLE, packed values otherwise) those partial
// segments hold. This is what the cost model prices at plan time.
func (e *Encoded) PredStats(plo, phi uint32) (skipped, full, partial, work int) {
	for si := range e.segs {
		s := &e.segs[si]
		switch {
		case s.Max < plo || s.Min > phi:
			skipped++
		case s.Min >= plo && s.Max <= phi:
			full++
		default:
			partial++
			if e.enc == EncDictRLE {
				work += s.N
			} else {
				work += s.Hi - s.Lo
			}
		}
	}
	return
}

// SumRange returns the sum of rows [lo, hi), aggregating directly on the
// encoded payload: RLE runs contribute value×length in one step, and
// constant packed segments (width 0) contribute Ref×rows without touching
// any words.
func (e *Encoded) SumRange(lo, hi int) uint64 {
	if hi > e.rows {
		hi = e.rows
	}
	if lo >= hi {
		return 0
	}
	var sum uint64
	if e.enc == EncDictRLE {
		for r := e.runAt(lo); r < len(e.runVals); r++ {
			rs, re := e.runStart(r), int(e.runEnds[r])
			if rs >= hi {
				break
			}
			if rs < lo {
				rs = lo
			}
			if re > hi {
				re = hi
			}
			sum += uint64(e.runVals[r]) * uint64(re-rs)
		}
		return sum
	}
	for si := lo / e.segRows; si <= (hi-1)/e.segRows; si++ {
		s := &e.segs[si]
		wlo, whi := s.Lo, s.Hi
		if wlo < lo {
			wlo = lo
		}
		if whi > hi {
			whi = hi
		}
		sum += uint64(s.Ref) * uint64(whi-wlo)
		if s.Width == 0 {
			continue
		}
		for i := wlo; i < whi; i++ {
			sum += uint64(e.packedAt(s, i))
		}
	}
	return sum
}

// encview is a column's window onto an encoded payload, with a lazily
// decoded buffer as the universal fallback: any kernel that asks for the
// raw uint32 slice gets the window decoded once (sync.Once makes concurrent
// first readers race-free) and the encoded payload stays authoritative for
// the direct kernels.
type encview struct {
	p      *Encoded
	lo, hi int

	once sync.Once
	buf  []uint32
	done atomic.Bool
}

func (v *encview) decoded() []uint32 {
	v.once.Do(func() {
		buf := make([]uint32, v.hi-v.lo)
		v.p.DecodeRange(v.lo, v.hi, buf)
		v.buf = buf
		v.done.Store(true)
	})
	return v.buf
}

// memBytes charges the encoded payload of the window's segments, plus the
// decode buffer once the fallback has materialised it.
func (v *encview) memBytes() int64 {
	n := v.p.EncodedBytesRange(v.lo, v.hi)
	if v.done.Load() {
		n += int64(v.hi-v.lo) * 4
	}
	return n
}

// CompressColumn returns a column storing c's values (or dictionary codes)
// encoded with enc; EncNone picks the smallest payload automatically and
// returns c unchanged when no encoding beats plain storage. Only uint32 and
// string columns are encodable — string columns keep their dictionary and
// encode the code stream, so dictionary-aware predicates keep working in
// code space. Statistics are computed (or carried) at compression time, so
// the compressed column plans with exactly the properties of its plain twin.
func CompressColumn(c *Column, enc Encoding) *Column {
	if c.kind != KindUint32 && c.kind != KindString {
		return c
	}
	if c.enc != nil {
		return c
	}
	vals := c.u32
	var p *Encoded
	if enc == EncNone {
		p = EncodeAuto(vals, DefaultSegmentRows)
	} else {
		var err error
		p, err = EncodeUint32(vals, enc, DefaultSegmentRows)
		if err != nil {
			return c
		}
	}
	if p == nil {
		return c
	}
	st := c.Stats()
	nc := &Column{name: c.name, kind: c.kind, dict: c.dict,
		enc: &encview{p: p, lo: 0, hi: p.Rows()}}
	nc.SetStats(st)
	return nc
}

// Compress returns a relation whose encodable columns are stored compressed
// (auto-chosen per column); columns that do not benefit stay as-is. Order
// correlations and declared statistics carry over.
func (r *Relation) Compress() *Relation {
	cols := make([]*Column, len(r.cols))
	for i, c := range r.cols {
		cols[i] = CompressColumn(c, EncNone)
	}
	out := MustNewRelation(r.name, cols...)
	out.corrs = append([][2]string(nil), r.corrs...)
	return out
}

// Materialize returns a relation with every encoded column decoded into
// plain storage; relations without encoded columns are returned as-is.
func (r *Relation) Materialize() *Relation {
	if !r.HasEncoded() {
		return r
	}
	cols := make([]*Column, len(r.cols))
	for i, c := range r.cols {
		if c.enc == nil {
			cols[i] = c
			continue
		}
		nc := &Column{name: c.name, kind: c.kind, dict: c.dict, u32: c.enc.decoded()}
		nc.own.st.Store(c.cell().st.Load()) // statistics known so far carry over by value
		cols[i] = nc
	}
	out := MustNewRelation(r.name, cols...)
	out.corrs = append([][2]string(nil), r.corrs...)
	return out
}

// HasEncoded reports whether any column is stored compressed.
func (r *Relation) HasEncoded() bool {
	for _, c := range r.cols {
		if c.enc != nil {
			return true
		}
	}
	return false
}

// Encoding returns the column's storage encoding (EncNone for plain).
func (c *Column) Encoding() Encoding {
	if c.enc == nil {
		return EncNone
	}
	return c.enc.p.enc
}

// EncodedView returns the column's encoded payload and the row window of
// this column view within it, or ok=false for plain columns.
func (c *Column) EncodedView() (p *Encoded, lo, hi int, ok bool) {
	if c.enc == nil {
		return nil, 0, 0, false
	}
	return c.enc.p, c.enc.lo, c.enc.hi, true
}

// ColumnStorage describes one column's physical storage, for introspection
// (the shell's \storage command).
type ColumnStorage struct {
	Name        string
	Kind        Kind
	Encoding    Encoding
	Rows        int
	Segments    int
	Runs        int // EncDictRLE only
	PlainBytes  int64
	StoredBytes int64
}

// Ratio returns plain bytes over stored bytes (1 for plain columns).
func (cs ColumnStorage) Ratio() float64 {
	if cs.StoredBytes == 0 {
		return 1
	}
	return float64(cs.PlainBytes) / float64(cs.StoredBytes)
}

// StorageInfo reports the physical storage of every column.
func (r *Relation) StorageInfo() []ColumnStorage {
	out := make([]ColumnStorage, len(r.cols))
	for i, c := range r.cols {
		cs := ColumnStorage{
			Name: c.name, Kind: c.kind, Encoding: c.Encoding(), Rows: c.Len(),
			PlainBytes: int64(c.Len()) * elemBytes(c.kind),
		}
		if c.enc != nil {
			cs.Segments = c.enc.p.NumSegments()
			cs.Runs = c.enc.p.NumRuns()
			cs.StoredBytes = c.enc.p.EncodedBytes()
		} else {
			cs.StoredBytes = cs.PlainBytes
		}
		out[i] = cs
	}
	return out
}
