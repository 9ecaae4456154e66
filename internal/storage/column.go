package storage

import (
	"fmt"
	"strconv"
)

// Column is an immutable-by-convention typed column vector. Exactly one of
// the backing slices is populated, according to Kind. String columns store
// dictionary codes in the uint32 slice plus a *Dict.
//
// Mutating a backing slice after handing it to a column invalidates cached
// statistics; use ResetStats if you must.
//
// A Column must not be copied by value (it holds its statistics cell);
// Rename and Slice are the ways to derive one.
type Column struct {
	name string
	kind Kind

	u32 []uint32
	u64 []uint64
	i64 []int64
	f64 []float64

	dict *Dict

	// enc, when non-nil, replaces u32 as the backing store: the column's
	// uint32 payload (values or dictionary codes) lives compressed and is
	// decoded lazily when a kernel asks for the raw slice. See segment.go.
	enc *encview

	// own is the column's statistics cell. A whole-column view (Rename) has
	// shared pointing at the cell of the column it views instead, so the
	// statistics of a registered table are computed once however many
	// per-query views are made of it.
	own    statsCell
	shared *statsCell
}

// shallow returns a column sharing c's name, kind and backing stores, with
// an empty statistics cell of its own.
func (c *Column) shallow() *Column {
	return &Column{name: c.name, kind: c.kind, u32: c.u32, u64: c.u64, i64: c.i64, f64: c.f64, dict: c.dict, enc: c.enc}
}

// data32 returns the column's uint32 payload, decoding an encoded backing
// store on first use. The direct-on-compressed kernels bypass this and read
// the segments via EncodedView.
func (c *Column) data32() []uint32 {
	if c.enc != nil {
		return c.enc.decoded()
	}
	return c.u32
}

// at32 returns the uint32 payload value of row i without forcing a full
// decode of an encoded column.
func (c *Column) at32(i int) uint32 {
	if c.enc != nil {
		return c.enc.p.At(c.enc.lo + i)
	}
	return c.u32[i]
}

// NewUint32 returns a uint32 column backed by vals (not copied).
func NewUint32(name string, vals []uint32) *Column {
	return &Column{name: name, kind: KindUint32, u32: vals}
}

// NewUint64 returns a uint64 column backed by vals (not copied).
func NewUint64(name string, vals []uint64) *Column {
	return &Column{name: name, kind: KindUint64, u64: vals}
}

// NewInt64 returns an int64 column backed by vals (not copied).
func NewInt64(name string, vals []int64) *Column {
	return &Column{name: name, kind: KindInt64, i64: vals}
}

// NewFloat64 returns a float64 column backed by vals (not copied).
func NewFloat64(name string, vals []float64) *Column {
	return &Column{name: name, kind: KindFloat64, f64: vals}
}

// NewString returns a dictionary-encoded string column, interning vals into a
// fresh dictionary in order of first occurrence (codes are therefore dense).
func NewString(name string, vals []string) *Column {
	d := NewDict()
	codes := make([]uint32, len(vals))
	for i, s := range vals {
		codes[i] = d.Intern(s)
	}
	return &Column{name: name, kind: KindString, u32: codes, dict: d}
}

// NewStringCodes returns a string column over pre-encoded codes and a shared
// dictionary. Every code must be valid for dict.
func NewStringCodes(name string, codes []uint32, dict *Dict) *Column {
	for i, c := range codes {
		if int(c) >= dict.Len() {
			panic(fmt.Sprintf("storage: NewStringCodes: code %d at row %d out of range (dict size %d)", c, i, dict.Len()))
		}
	}
	return &Column{name: name, kind: KindString, u32: codes, dict: dict}
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the column kind.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of rows.
func (c *Column) Len() int {
	switch c.kind {
	case KindUint32, KindString:
		if c.enc != nil {
			return c.enc.hi - c.enc.lo
		}
		return len(c.u32)
	case KindUint64:
		return len(c.u64)
	case KindInt64:
		return len(c.i64)
	case KindFloat64:
		return len(c.f64)
	default:
		return 0
	}
}

// Rename returns a column sharing this column's data under a new name. The
// view also shares the statistics cell (statistics describe the data, not
// the name): whichever of the two is asked first computes them, once, for
// both, and SetStats/ResetStats through either acts on both.
func (c *Column) Rename(name string) *Column {
	nc := c.shallow()
	nc.name = name
	nc.shared = c.cell()
	return nc
}

// Uint32s returns the backing uint32 slice. It panics unless the column is
// KindUint32 or KindString (codes).
func (c *Column) Uint32s() []uint32 {
	if c.kind != KindUint32 && c.kind != KindString {
		panic(fmt.Sprintf("storage: Uint32s on %s column %q", c.kind, c.name))
	}
	return c.data32()
}

// Uint64s returns the backing uint64 slice. It panics unless KindUint64.
func (c *Column) Uint64s() []uint64 {
	if c.kind != KindUint64 {
		panic(fmt.Sprintf("storage: Uint64s on %s column %q", c.kind, c.name))
	}
	return c.u64
}

// Int64s returns the backing int64 slice. It panics unless KindInt64.
func (c *Column) Int64s() []int64 {
	if c.kind != KindInt64 {
		panic(fmt.Sprintf("storage: Int64s on %s column %q", c.kind, c.name))
	}
	return c.i64
}

// Float64s returns the backing float64 slice. It panics unless KindFloat64.
func (c *Column) Float64s() []float64 {
	if c.kind != KindFloat64 {
		panic(fmt.Sprintf("storage: Float64s on %s column %q", c.kind, c.name))
	}
	return c.f64
}

// Dict returns the dictionary of a string column, or nil otherwise.
func (c *Column) Dict() *Dict { return c.dict }

// Keys returns the column's values as order-preserving uint64 keys, for use
// as grouping/join keys or in statistics. String columns yield their codes.
// Float columns are not key-able and cause a panic.
func (c *Column) Keys() []uint64 {
	switch c.kind {
	case KindUint32, KindString:
		vals := c.data32()
		out := make([]uint64, len(vals))
		for i, v := range vals {
			out[i] = uint64(v)
		}
		return out
	case KindUint64:
		return c.u64
	case KindInt64:
		out := make([]uint64, len(c.i64))
		for i, v := range c.i64 {
			out[i] = uint64(v) ^ (1 << 63) // flip sign bit: order-preserving
		}
		return out
	default:
		panic(fmt.Sprintf("storage: Keys on %s column %q", c.kind, c.name))
	}
}

// KeyAt returns the order-preserving uint64 key of row i, mirroring Keys.
func (c *Column) KeyAt(i int) uint64 {
	switch c.kind {
	case KindUint32, KindString:
		return uint64(c.at32(i))
	case KindUint64:
		return c.u64[i]
	case KindInt64:
		return uint64(c.i64[i]) ^ (1 << 63)
	default:
		panic(fmt.Sprintf("storage: KeyAt on %s column %q", c.kind, c.name))
	}
}

// Value is a dynamically typed cell value, used at the system's edges
// (printing, CSV, the SQL shell). The engine's hot paths never touch it.
type Value struct {
	Kind Kind
	U    uint64  // KindUint32/KindUint64: the value; KindInt64: the raw bits
	F    float64 // KindFloat64
	S    string  // KindString
}

// String renders the value the way the shell prints it.
func (v Value) String() string {
	switch v.Kind {
	case KindUint32, KindUint64:
		return strconv.FormatUint(v.U, 10)
	case KindInt64:
		return strconv.FormatInt(int64(v.U), 10)
	case KindFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	default:
		return "<invalid>"
	}
}

// ValueAt returns the dynamically typed value at row i.
func (c *Column) ValueAt(i int) Value {
	switch c.kind {
	case KindUint32:
		return Value{Kind: KindUint32, U: uint64(c.at32(i))}
	case KindUint64:
		return Value{Kind: KindUint64, U: c.u64[i]}
	case KindInt64:
		return Value{Kind: KindInt64, U: uint64(c.i64[i])}
	case KindFloat64:
		return Value{Kind: KindFloat64, F: c.f64[i]}
	case KindString:
		return Value{Kind: KindString, S: c.dict.Lookup(c.at32(i))}
	default:
		return Value{}
	}
}

// Stats returns the column statistics, computing them exactly on first use.
// For float columns only Rows and Sorted are meaningful. It is safe for
// concurrent use: concurrent first callers compute once.
func (c *Column) Stats() Stats {
	cell := c.cell()
	if st := cell.st.Load(); st != nil {
		return *st
	}
	cell.mu.Lock()
	defer cell.mu.Unlock()
	if st := cell.st.Load(); st != nil {
		return *st
	}
	st := c.computeStats()
	cell.st.Store(&st)
	return st
}

// SetStats installs declared statistics (e.g. ground truth from a dataset
// generator) without scanning the data. Callers are trusted; tests verify
// generators against computed stats on small instances. Through a Rename
// view it declares them for the viewed column too.
func (c *Column) SetStats(st Stats) { c.cell().st.Store(&st) }

// ResetStats discards cached statistics, forcing recomputation — for the
// viewed column too when called through a Rename view.
func (c *Column) ResetStats() { c.cell().st.Store(nil) }

func (c *Column) computeStats() Stats {
	statsComputed.Add(1)
	switch c.kind {
	case KindUint32, KindString:
		return intStats(c.data32(), 0)
	case KindUint64:
		return intStats(c.u64, 0)
	case KindInt64:
		return intStats(c.i64, 1<<63)
	case KindFloat64:
		return floatStats(c.f64)
	default:
		return Stats{}
	}
}

// Gather returns a new column holding rows idx[0], idx[1], ... of c, in that
// order. It is the building block for sorts, joins, and selections. The
// payload is drawn from s (nil: a fresh array) and every element is written.
func (c *Column) Gather(s *Scratch, idx []int32) *Column {
	out := c.newGatherDst(s, len(idx))
	if c.enc != nil {
		// Gather straight off the encoded payload: ascending index lists
		// (selection vectors) ride the run cursor, no full decode needed.
		c.enc.p.Gather(c.enc.lo, idx, out.u32)
		return out
	}
	c.gatherRange(out, idx, 0, len(idx))
	return out
}

// NewColumn returns a column of n rows of the given kind, for a caller that
// fills the backing slice in place before it publishes the column. Its array
// is drawn from s: dirty, so the caller writes every row before it reads one
// (nil s: a fresh array of zeroed rows). A string column needs its
// dictionary, and zeroed rows are code 0 until filled.
func NewColumn(s *Scratch, name string, kind Kind, dict *Dict, n int) (*Column, error) {
	out := &Column{name: name, kind: kind}
	switch kind {
	case KindUint32:
		out.u32 = s.Uint32s(n)
	case KindString:
		if dict == nil {
			return nil, fmt.Errorf("storage: string column %q without a dictionary", name)
		}
		out.u32, out.dict = s.Uint32s(n), dict
	case KindUint64:
		out.u64 = s.Uint64s(n)
	case KindInt64:
		out.i64 = s.Int64s(n)
	case KindFloat64:
		out.f64 = s.Float64s(n)
	default:
		return nil, fmt.Errorf("storage: column %q of invalid kind %d", name, kind)
	}
	return out, nil
}

// newGatherDst returns a gather destination of c's kind with n rows drawn
// from s, sharing the dictionary (Gather never rewrites codes). Its rows are
// dirty until the gather writes them.
func (c *Column) newGatherDst(s *Scratch, n int) *Column {
	out := &Column{name: c.name, kind: c.kind, dict: c.dict}
	switch c.kind {
	case KindUint32, KindString:
		out.u32 = s.Uint32s(n)
	case KindUint64:
		out.u64 = s.Uint64s(n)
	case KindInt64:
		out.i64 = s.Int64s(n)
	case KindFloat64:
		out.f64 = s.Float64s(n)
	default:
		panic(fmt.Sprintf("storage: gather on invalid column %q", c.name))
	}
	return out
}

// gatherRange writes rows idx[lo:hi] of c into positions [lo, hi) of the
// preallocated destination; disjoint ranges may be filled concurrently.
func (c *Column) gatherRange(dst *Column, idx []int32, lo, hi int) {
	switch c.kind {
	case KindUint32, KindString:
		src := c.data32() // sync.Once decode: safe under concurrent ranges
		for i := lo; i < hi; i++ {
			dst.u32[i] = src[idx[i]]
		}
	case KindUint64:
		for i := lo; i < hi; i++ {
			dst.u64[i] = c.u64[idx[i]]
		}
	case KindInt64:
		for i := lo; i < hi; i++ {
			dst.i64[i] = c.i64[idx[i]]
		}
	case KindFloat64:
		for i := lo; i < hi; i++ {
			dst.f64[i] = c.f64[idx[i]]
		}
	}
}

// Slice returns a column viewing rows [lo, hi) of c without copying.
func (c *Column) Slice(lo, hi int) *Column {
	nc := c.shallow()
	switch c.kind {
	case KindUint32, KindString:
		if c.enc != nil {
			// Zero-copy window onto the shared encoded payload; the view
			// decodes independently of (and lazily like) its parent.
			nc.enc = &encview{p: c.enc.p, lo: c.enc.lo + lo, hi: c.enc.lo + hi}
			break
		}
		nc.u32 = c.u32[lo:hi]
	case KindUint64:
		nc.u64 = c.u64[lo:hi]
	case KindInt64:
		nc.i64 = c.i64[lo:hi]
	case KindFloat64:
		nc.f64 = c.f64[lo:hi]
	}
	return nc
}

// Equal reports whether two columns have the same kind, length, and values.
// String columns compare decoded strings, so differing dictionaries with the
// same content are equal.
func (c *Column) Equal(o *Column) bool {
	if c.kind != o.kind || c.Len() != o.Len() {
		return false
	}
	switch c.kind {
	case KindUint32:
		ov := o.data32()
		for i, v := range c.data32() {
			if ov[i] != v {
				return false
			}
		}
	case KindUint64:
		for i, v := range c.u64 {
			if o.u64[i] != v {
				return false
			}
		}
	case KindInt64:
		for i, v := range c.i64 {
			if o.i64[i] != v {
				return false
			}
		}
	case KindFloat64:
		for i, v := range c.f64 {
			if o.f64[i] != v {
				return false
			}
		}
	case KindString:
		cv, ov := c.data32(), o.data32()
		for i := range cv {
			if c.dict.Lookup(cv[i]) != o.dict.Lookup(ov[i]) {
				return false
			}
		}
	}
	return true
}
