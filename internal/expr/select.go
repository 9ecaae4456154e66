package expr

import (
	"fmt"
	"unsafe"

	"dqo/internal/storage"
)

// This file is the filter kernel: Selectivity turns a predicate into a
// selection vector without the interpreter's intermediate vectors.
//
// The kernel is chosen by the shape of the expression, never by a setting:
//
//   - column <cmp> literal (either way round) compares the column's typed
//     slice against the literal in place. Integer columns compare as int64
//     (uint64 values above MaxInt64 wrap negative, exactly as the interpreter
//     widens them), an integer column against a float literal compares as
//     float64, and a string column compares dictionary codes.
//   - AND narrows the left side's selection by the right side, so the right
//     side only looks at surviving rows; OR merges the two sides' selections.
//   - anything else (arithmetic, column against column) goes through the
//     interpreter in expr.go, whose []bool is then read off into the vector.

// Selectivity runs the predicate and returns the selected row indexes in
// ascending order. The returned slice is drawn from the storage buffer pool;
// callers that consume it immediately (e.g. via Gather) may release it with
// storage.PutInt32s.
func Selectivity(e Expr, rel *storage.Relation) ([]int32, error) {
	return selectRows(e, rel, nil, true)
}

// selectRows returns the candidate rows that satisfy e. The candidates are
// cand (ascending), or every row of rel when all is set. The result is a
// fresh pooled vector; cand is left untouched.
func selectRows(e Expr, rel *storage.Relation, cand []int32, all bool) ([]int32, error) {
	if b, ok := e.(Bin); ok {
		switch {
		case b.Op == OpAnd:
			l, err := selectRows(b.L, rel, cand, all)
			if err != nil {
				return nil, err
			}
			out, err := selectRows(b.R, rel, l, false)
			storage.PutInt32s(l)
			return out, err
		case b.Op == OpOr:
			l, err := selectRows(b.L, rel, cand, all)
			if err != nil {
				return nil, err
			}
			r, err := selectRows(b.R, rel, cand, all)
			if err != nil {
				storage.PutInt32s(l)
				return nil, err
			}
			out := union(storage.GetInt32s(len(l)+len(r)), l, r)
			storage.PutInt32s(l)
			storage.PutInt32s(r)
			return out, nil
		case b.Op.comparison():
			if name, op, lit, ok := columnVsLiteral(b); ok {
				return compareColumn(rel, name, op, lit, cand, all)
			}
		}
	}
	keep, err := EvalPredicate(e, rel)
	if err != nil {
		return nil, err
	}
	if all {
		out := storage.GetInt32s(len(keep))[:len(keep)]
		k := 0
		for i, kept := range keep {
			out[k] = int32(i)
			k += b2i(kept)
		}
		return out[:k], nil
	}
	out := storage.GetInt32s(len(cand))[:len(cand)]
	k := 0
	for _, i := range cand {
		out[k] = i
		k += b2i(keep[i])
	}
	return out[:k], nil
}

// columnVsLiteral recognises "column <cmp> literal" and "literal <cmp>
// column", returning the latter with the operator mirrored.
func columnVsLiteral(b Bin) (name string, op Op, lit Expr, ok bool) {
	if c, isCol := b.L.(Col); isCol && isLiteral(b.R) {
		return c.Name, b.Op, b.R, true
	}
	if c, isCol := b.R.(Col); isCol && isLiteral(b.L) {
		return c.Name, mirror(b.Op), b.L, true
	}
	return "", 0, nil, false
}

func isLiteral(e Expr) bool {
	switch e.(type) {
	case IntLit, FloatLit, StrLit:
		return true
	}
	return false
}

// mirror returns the operator that holds for (b, a) exactly when op holds
// for (a, b).
func mirror(op Op) Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// compareColumn selects the candidate rows whose value in the named column
// compares true against the literal.
func compareColumn(rel *storage.Relation, name string, op Op, lit Expr, cand []int32, all bool) ([]int32, error) {
	col, ok := rel.Column(name)
	if !ok {
		return nil, fmt.Errorf("expr: unknown column %q", name)
	}
	n := len(cand)
	if all {
		n = col.Len()
	}
	dst := storage.GetInt32s(n)
	switch col.Kind() {
	case storage.KindUint32:
		if out, ok := compareInts(dst, op, col.Uint32s(), lit, cand, all); ok {
			return out, nil
		}
	case storage.KindUint64:
		if out, ok := compareInts(dst, op, wrapInt64s(col.Uint64s()), lit, cand, all); ok {
			return out, nil
		}
	case storage.KindInt64:
		if out, ok := compareInts(dst, op, col.Int64s(), lit, cand, all); ok {
			return out, nil
		}
	case storage.KindFloat64:
		switch l := lit.(type) {
		case IntLit:
			return compare(dst, op, col.Float64s(), float64(l.V), cand, all), nil
		case FloatLit:
			return compare(dst, op, col.Float64s(), l.V, cand, all), nil
		}
	case storage.KindString:
		if l, ok := lit.(StrLit); ok {
			return compareCodes(dst, op, col.Uint32s(), col.Dict(), l.V, cand, all), nil
		}
	}
	storage.PutInt32s(dst)
	return nil, fmt.Errorf("expr: type mismatch: %s column %q %s %s", col.Kind(), name, op, lit)
}

// compareInts compares an integer column in the literal's domain: as int64
// against an integer literal, as float64 against a float literal.
func compareInts[C uint32 | int64](dst []int32, op Op, vals []C, lit Expr, cand []int32, all bool) ([]int32, bool) {
	switch l := lit.(type) {
	case IntLit:
		return compare(dst, op, vals, l.V, cand, all), true
	case FloatLit:
		return compare(dst, op, vals, l.V, cand, all), true
	}
	return nil, false
}

// wrapInt64s views uint64 values as the int64s the interpreter widens them
// to, so both read a value above MaxInt64 as the same negative number.
func wrapInt64s(u []uint64) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(u))), len(u))
}

// compare writes to dst the candidate rows i with V(vals[i]) <op> lit. dst
// has capacity for every candidate (len(vals) of them on a full scan), so
// each candidate is written at the cursor unconditionally and the cursor
// advances by the comparison's 0/1 outcome: no branch depends on the data,
// and a filter near 50 % selectivity costs what one near 0 % or 100 % does.
// Each operator gets its own loop on both paths, so the operator is not
// decided per row either.
func compare[C uint32 | int64 | float64, V int64 | float64](dst []int32, op Op, vals []C, lit V, cand []int32, all bool) []int32 {
	k := 0
	if all {
		out := dst[:len(vals)]
		switch op {
		case OpEq:
			for i, v := range vals {
				out[k] = int32(i)
				k += b2i(V(v) == lit)
			}
		case OpNe:
			for i, v := range vals {
				out[k] = int32(i)
				k += b2i(V(v) != lit)
			}
		case OpLt:
			for i, v := range vals {
				out[k] = int32(i)
				k += b2i(V(v) < lit)
			}
		case OpLe:
			for i, v := range vals {
				out[k] = int32(i)
				k += b2i(V(v) <= lit)
			}
		case OpGt:
			for i, v := range vals {
				out[k] = int32(i)
				k += b2i(V(v) > lit)
			}
		case OpGe:
			for i, v := range vals {
				out[k] = int32(i)
				k += b2i(V(v) >= lit)
			}
		}
		return out[:k]
	}
	out := dst[:len(cand)]
	switch op {
	case OpEq:
		for _, i := range cand {
			out[k] = i
			k += b2i(V(vals[i]) == lit)
		}
	case OpNe:
		for _, i := range cand {
			out[k] = i
			k += b2i(V(vals[i]) != lit)
		}
	case OpLt:
		for _, i := range cand {
			out[k] = i
			k += b2i(V(vals[i]) < lit)
		}
	case OpLe:
		for _, i := range cand {
			out[k] = i
			k += b2i(V(vals[i]) <= lit)
		}
	case OpGt:
		for _, i := range cand {
			out[k] = i
			k += b2i(V(vals[i]) > lit)
		}
	case OpGe:
		for _, i := range cand {
			out[k] = i
			k += b2i(V(vals[i]) >= lit)
		}
	}
	return out[:k]
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// read (SETcc), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// holds evaluates one comparison.
func holds[V int64 | float64 | string](op Op, a, b V) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	default:
		return a >= b
	}
}

// compareCodes compares a dictionary-coded string column without decoding a
// row. Equality is a comparison of codes (a literal the dictionary never
// saw matches no row). Codes are in insertion order, not string order, so an
// ordering comparison is decided once per dictionary entry and rows are
// selected by their code's verdict, written and advanced over as in compare.
func compareCodes(dst []int32, op Op, codes []uint32, dict *storage.Dict, lit string, cand []int32, all bool) []int32 {
	if op == OpEq || op == OpNe {
		if code, known := dict.Code(lit); known {
			return compare(dst, op, codes, int64(code), cand, all)
		}
		if op == OpEq {
			return dst
		}
	}
	verdict := make([]bool, dict.Len())
	for c := range verdict {
		verdict[c] = holds(op, dict.Lookup(uint32(c)), lit)
	}
	k := 0
	if all {
		out := dst[:len(codes)]
		for i, c := range codes {
			out[k] = int32(i)
			k += b2i(verdict[c])
		}
		return out[:k]
	}
	out := dst[:len(cand)]
	for _, i := range cand {
		out[k] = i
		k += b2i(verdict[codes[i]])
	}
	return out[:k]
}

// union merges two ascending selections into dst without duplicates.
func union(dst, a, b []int32) []int32 {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case a[0] > b[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}
