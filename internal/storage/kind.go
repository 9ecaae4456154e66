// Package storage implements the in-memory columnar storage substrate: typed
// columns, dictionary encoding for strings, relations, and per-column
// statistics (sortedness, density, distinct count) — the data properties the
// DQO optimiser reasons about.
package storage

import (
	"fmt"
	"math"
)

// Kind identifies the physical type of a column.
type Kind uint8

// Column kinds. String columns are dictionary-encoded: the column stores
// uint32 codes, the dictionary stores the distinct strings. The paper notes
// that "the keys of a dictionary-compressed column are a natural candidate"
// for static perfect hashing; dictionary codes are dense by construction.
const (
	KindInvalid Kind = iota
	KindUint32
	KindUint64
	KindInt64
	KindFloat64
	KindString
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case KindUint32:
		return "uint32"
	case KindUint64:
		return "uint64"
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the defined column kinds.
func (k Kind) Valid() bool { return k > KindInvalid && k <= KindString }

// Integer reports whether k is an integer kind (the kinds for which density
// is defined and which can serve as grouping/join keys).
func (k Kind) Integer() bool {
	return k == KindUint32 || k == KindUint64 || k == KindInt64 || k == KindString
}

// KeyRange maps a half-open range [lo, hi) of integer literals in
// [0, 2^32] into the key space of kind k, the space its statistics' Min and
// Max are in: unsigned values and dictionary codes are their own keys, an
// int64 is its bits with the sign flipped (see intStats). hi = 2^32, the top
// of the uint32 domain, bounds nothing in a wider kind and becomes the top of
// the key space. ok is false for a kind without integer keys.
func (k Kind) KeyRange(lo, hi uint64) (klo, khi uint64, ok bool) {
	const top, sign = uint64(1) << 32, uint64(1) << 63
	switch k {
	case KindUint32, KindString:
		return lo, hi, true
	case KindUint64, KindInt64:
		flip := uint64(0)
		if k == KindInt64 {
			flip = sign
		}
		if hi >= top {
			return lo ^ flip, math.MaxUint64, true
		}
		return lo ^ flip, hi ^ flip, true
	default:
		return 0, 0, false
	}
}
