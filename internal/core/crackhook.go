package core

import (
	"dqo/internal/expr"
	"dqo/internal/storage"
)

// RangeIndex is an adaptive (cracked) index Algorithmic View: probing it
// returns the base-table row ids in a half-open key range, refining the
// index as a side effect — "a partial AV where some optimisation decisions
// have been delegated to query time" (paper Section 6 on adaptive indexing).
type RangeIndex interface {
	// Range64 returns the base row ids with lo <= key < hi.
	Range64(lo, hi uint64) []int32
	// Label describes the index, e.g. "av:crack(R.A)".
	Label() string
}

// RangeProvider supplies cracked indexes per (table, column).
type RangeProvider interface {
	// Cracked returns the adaptive index on table.column, if materialised.
	Cracked(table, column string) (RangeIndex, bool)
}

// WithCracked returns a copy of the mode with the adaptive-index provider
// installed.
func (m Mode) WithCracked(p RangeProvider) Mode {
	m.CrackedIdx = p
	return m
}

// predRange decomposes a predicate into a single-column half-open uint64
// key range: col = K, col < K, col <= K, col > K, col >= K, and
// conjunctions of two bounds on the same column. Returns ok = false for
// anything else (the general filter path handles it).
func predRange(e expr.Expr) (col string, lo, hi uint64, ok bool) {
	const top = uint64(1) << 32
	b, isBin := e.(expr.Bin)
	if !isBin {
		return "", 0, 0, false
	}
	if b.Op == expr.OpAnd {
		c1, lo1, hi1, ok1 := predRange(b.L)
		c2, lo2, hi2, ok2 := predRange(b.R)
		if !ok1 || !ok2 || c1 != c2 {
			return "", 0, 0, false
		}
		lo, hi = lo1, hi1
		if lo2 > lo {
			lo = lo2
		}
		if hi2 < hi {
			hi = hi2
		}
		return c1, lo, hi, true
	}
	cref, isCol := b.L.(expr.Col)
	lit, isLit := b.R.(expr.IntLit)
	if !isCol || !isLit || lit.V < 0 || uint64(lit.V) >= top {
		return "", 0, 0, false
	}
	k := uint64(lit.V)
	switch b.Op {
	case expr.OpEq:
		return cref.Name, k, k + 1, true
	case expr.OpLt:
		return cref.Name, 0, k, true
	case expr.OpLe:
		return cref.Name, 0, k + 1, true
	case expr.OpGt:
		return cref.Name, k + 1, top, true
	case expr.OpGe:
		return cref.Name, k, top, true
	default:
		return "", 0, 0, false
	}
}

// relKeyRange is predRange in the key space (storage.Kind.KeyRange) of the
// column of rel that pred reads: what a cracked index of rel or its encoded
// payload compares.
func relKeyRange(pred expr.Expr, rel *storage.Relation) (col string, lo, hi uint64, ok bool) {
	col, lo, hi, ok = predRange(pred)
	if c, have := rel.Column(col); ok && have {
		lo, hi, ok = c.Kind().KeyRange(lo, hi)
		return col, lo, hi, ok
	}
	return col, 0, 0, false
}
