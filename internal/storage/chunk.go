package storage

import (
	"fmt"

	"dqo/internal/faultinject"
)

// This file supports the morsel-driven execution layer (internal/exec):
// zero-copy row-range views of relations, and re-assembly of a stream of
// such batches into one relation.

// Slice returns a relation viewing rows [lo, hi) of r without copying any
// column data. Declared order correlations carry over (a contiguous row
// subset of a correlated relation stays correlated); column statistics are
// recomputed lazily per view.
func (r *Relation) Slice(lo, hi int) *Relation {
	cols := make([]*Column, len(r.cols))
	for i, c := range r.cols {
		cols[i] = c.Slice(lo, hi)
	}
	out := MustNewRelation(r.name, cols...)
	out.corrs = append([][2]string(nil), r.corrs...)
	return out
}

// Concat concatenates batches with identical schemas (column names and
// kinds, in order) into a single relation named after the first batch. A
// single-batch input is returned as-is, without copying. String columns
// sharing one dictionary keep it; batches with differing dictionaries are
// re-interned into a fresh one.
//
// A column whose parts are back-to-back windows of one backing array — the
// morsels a Scan or a breaker's output stream hands out via Slice — is
// returned as a view of that array, not a copy; this is decided per column,
// so a relation copies only the columns it must. Encoded columns, string
// parts with differing dictionaries, and parts that are empty, gapped,
// repeated, reordered or from different arrays are copied. The result may
// therefore alias its producer's storage (a registered table included):
// like every relation it is immutable by convention, and no kernel writes
// its input. The columns that are copied are drawn from s (nil: fresh
// arrays).
func Concat(s *Scratch, parts []*Relation) (*Relation, error) {
	if err := faultinject.Fire(faultinject.PointStorageConcat); err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("storage: Concat of no batches")
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p.NumCols() != first.NumCols() {
			return nil, fmt.Errorf("storage: Concat: schema mismatch (%d vs %d columns)", p.NumCols(), first.NumCols())
		}
	}
	cols := make([]*Column, first.NumCols())
	parts_j := getColScratch(len(parts))
	defer putColScratch(parts_j)
	for j := range cols {
		for i, p := range parts {
			parts_j[i] = p.cols[j]
		}
		c, err := concatColumns(s, parts_j)
		if err != nil {
			return nil, err
		}
		cols[j] = c
	}
	return NewRelation(first.name, cols...)
}

// concatColumns concatenates same-name, same-kind columns in order, into an
// array drawn from s unless they are back-to-back windows of one array.
func concatColumns(s *Scratch, cols []*Column) (*Column, error) {
	first := cols[0]
	total := 0
	for _, c := range cols {
		if c.name != first.name || c.kind != first.kind {
			return nil, fmt.Errorf("storage: Concat: column mismatch (%s %q vs %s %q)",
				first.kind, first.name, c.kind, c.name)
		}
		total += c.Len()
	}
	out := &Column{name: first.name, kind: first.kind}
	switch first.kind {
	case KindUint32:
		if out.u32 = spanOf(cols, (*Column).plain32); out.u32 == nil {
			out.u32 = concatInto(s.Uint32s(total), cols, (*Column).data32)
		}
	case KindUint64:
		if out.u64 = spanOf(cols, (*Column).Uint64s); out.u64 == nil {
			out.u64 = concatInto(s.Uint64s(total), cols, (*Column).Uint64s)
		}
	case KindInt64:
		if out.i64 = spanOf(cols, (*Column).Int64s); out.i64 == nil {
			out.i64 = concatInto(s.Int64s(total), cols, (*Column).Int64s)
		}
	case KindFloat64:
		if out.f64 = spanOf(cols, (*Column).Float64s); out.f64 == nil {
			out.f64 = concatInto(s.Float64s(total), cols, (*Column).Float64s)
		}
	case KindString:
		out.dict = first.dict
		for _, c := range cols {
			if c.dict != out.dict {
				out.dict = nil
				break
			}
		}
		if out.dict != nil {
			if out.u32 = spanOf(cols, (*Column).plain32); out.u32 == nil {
				out.u32 = concatInto(s.Uint32s(total), cols, (*Column).data32)
			}
			break
		}
		// Differing dictionaries: re-intern by decoded value.
		out.dict, out.u32 = NewDict(), s.Uint32s(total)[:0]
		for _, c := range cols {
			for _, code := range c.data32() {
				out.u32 = append(out.u32, out.dict.Intern(c.dict.Lookup(code)))
			}
		}
	default:
		return nil, fmt.Errorf("storage: Concat on invalid column %q", first.name)
	}
	return out, nil
}

// concatInto copies every column's data into dst, back to back: dst is as
// long as all of them, and every element of it is written.
func concatInto[T any](dst []T, cols []*Column, data func(*Column) []T) []T {
	at := 0
	for _, c := range cols {
		at += copy(dst[at:], data(c))
	}
	return dst
}

// plain32 returns the column's uint32 payload when it is stored plain, nil
// when it is encoded.
func (c *Column) plain32() []uint32 {
	if c.enc != nil {
		return nil
	}
	return c.u32
}

// spanOf returns the single window covering every column's data when the
// columns are non-empty back-to-back windows of one backing array, in order
// (each starts at the element the previous one ends before), and nil
// otherwise. The window's capacity is clipped to its length.
func spanOf[T any](cols []*Column, data func(*Column) []T) []T {
	span := data(cols[0])
	for _, c := range cols[1:] {
		next := data(c)
		if len(span) == 0 || len(next) == 0 || cap(span) == len(span) || &span[:len(span)+1][len(span)] != &next[0] {
			return nil
		}
		span = span[:len(span)+len(next)]
	}
	return span[:len(span):len(span)]
}

// elemBytes is the per-row storage footprint of a column kind; dictionary
// payloads are shared and therefore not attributed to views.
func elemBytes(k Kind) int64 {
	switch k {
	case KindUint32, KindString:
		return 4
	case KindUint64, KindInt64, KindFloat64:
		return 8
	default:
		return 0
	}
}

// MemBytes estimates the resident column-data bytes of the column. Encoded
// columns are charged their segments' encoded bytes — plus the decode
// buffer once the lazy fallback has materialised it — rather than the
// logical 4 bytes per row.
func (c *Column) MemBytes() int64 {
	if c.enc != nil {
		return c.enc.memBytes()
	}
	return int64(c.Len()) * elemBytes(c.kind)
}

// MemBytes estimates the resident column-data bytes of the relation, used
// by the executor's per-operator peak-allocation counters.
func (r *Relation) MemBytes() int64 {
	var total int64
	for _, c := range r.cols {
		total += c.MemBytes()
	}
	return total
}
