// Package hashtable implements the aggregation and join hash tables used by
// the physical operators, with the table scheme and the hash function exposed
// as independent design dimensions.
//
// The paper's point (1) in Section 1 — "As an internal index structure a hash
// table is used, but which one exactly? ... a hash table has many different
// dimensions which influence performance dramatically" (citing Richter et
// al.'s seven-dimensional analysis) — is the reason these are separate,
// optimiser-visible choices ("molecules" in the Table 1 analogy) rather than
// hard-coded implementation details.
package hashtable

import "fmt"

// Func identifies a hash function for 32-bit keys.
type Func uint8

// Hash functions. Murmur3Fin is the Murmur3 finaliser the paper uses for
// hash-based grouping. Fibonacci is multiplicative hashing with 2^64/phi.
// MultiplyShift is Dietzfelbinger-style multiply-shift with a fixed odd
// multiplier. Identity hashes a key to itself; it is fast and perfect on
// dense domains and catastrophic on regular sparse ones — exactly the kind of
// trade-off DQO is supposed to weigh.
const (
	Murmur3Fin Func = iota
	Fibonacci
	MultiplyShift
	Identity
	numFuncs
)

// String returns the hash function name.
func (f Func) String() string {
	switch f {
	case Murmur3Fin:
		return "murmur3fin"
	case Fibonacci:
		return "fibonacci"
	case MultiplyShift:
		return "multiplyshift"
	case Identity:
		return "identity"
	default:
		return fmt.Sprintf("func(%d)", uint8(f))
	}
}

// Funcs lists all hash functions, for ablation sweeps.
func Funcs() []Func {
	return []Func{Murmur3Fin, Fibonacci, MultiplyShift, Identity}
}

// Hash applies f to key. The result's low bits are well distributed for all
// functions except Identity.
func (f Func) Hash(key uint32) uint64 {
	switch f {
	case Murmur3Fin:
		return murmur3fin(uint64(key))
	case Fibonacci:
		return fibonacci(key)
	case MultiplyShift:
		return multiplyShift(key)
	case Identity:
		return uint64(key)
	default:
		panic(fmt.Sprintf("hashtable: unknown hash function %d", uint8(f)))
	}
}

// HashBatch writes the hash of keys[i] to dst[i] (len(dst) >= len(keys)).
// The function is resolved once for the whole batch, so the tables' bulk
// paths pay the dispatch per block of rows, not per row.
func (f Func) HashBatch(dst []uint64, keys []uint32) {
	dst = dst[:len(keys)]
	switch f {
	case Murmur3Fin:
		for i, k := range keys {
			dst[i] = murmur3fin(uint64(k))
		}
	case Fibonacci:
		for i, k := range keys {
			dst[i] = fibonacci(k)
		}
	case MultiplyShift:
		for i, k := range keys {
			dst[i] = multiplyShift(k)
		}
	case Identity:
		for i, k := range keys {
			dst[i] = uint64(k)
		}
	default:
		panic(fmt.Sprintf("hashtable: unknown hash function %d", uint8(f)))
	}
}

// hashBlock is the number of keys the bulk paths hash at a time: large
// enough to amortise the dispatch, small enough to live on the stack.
const hashBlock = 256

// fibonacci is multiplicative hashing with 2^64 / golden ratio, folded so
// the low bits mix.
func fibonacci(key uint32) uint64 {
	h := uint64(key) * 0x9e3779b97f4a7c15
	return h ^ (h >> 32)
}

// multiplyShift is Dietzfelbinger-style multiply-shift with a fixed odd
// multiplier, folded so the low bits mix.
func multiplyShift(key uint32) uint64 {
	h := uint64(key) * 0xff51afd7ed558ccd
	return h ^ (h >> 33)
}

// murmur3fin is the 64-bit finaliser of MurmurHash3 (fmix64).
func murmur3fin(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
