// Package props implements DQO plan properties (paper Section 2.2).
//
// In classical dynamic programming only "interesting orders" survive as plan
// properties. The paper argues an interesting order is "just one tiny special
// case": density, clustering, correlation, compression, layout and more are
// equally property-like and must not be discarded between optimisation steps.
// This package is the shared vocabulary: a Set describes what is known about
// a (sub)plan's output, a Requirement describes what a consumer needs, and
// subsumption between the two drives both optimisers (SQO uses a restricted
// view of the same machinery).
package props

import (
	"fmt"
	"sort"
	"strings"
)

// Domain describes the key domain of one output column — the property that
// enables static perfect hashing. A dense domain of distinct values
// lo..hi admits an array indexed by key-lo as a minimal perfect hash.
type Domain struct {
	Known    bool   // statistics available
	Dense    bool   // Distinct == Hi-Lo+1
	Lo, Hi   uint64 // key bounds (valid if Known)
	Distinct int64  // exact distinct count (valid if Known)
}

// DenseDomain reports the bounds if the domain is known dense.
func (d Domain) DenseDomain() (lo, hi uint64, ok bool) {
	if !d.Known || !d.Dense {
		return 0, 0, false
	}
	return d.Lo, d.Hi, true
}

// Width returns Hi-Lo+1 for a known domain, 0 otherwise.
func (d Domain) Width() uint64 {
	if !d.Known {
		return 0
	}
	return d.Hi - d.Lo + 1
}

// Layout identifies the physical tuple layout of an output.
type Layout uint8

// Layouts. The engine is columnar throughout; Row appears when operators
// materialise packed rows. PAX is modelled for completeness of the property
// algebra.
const (
	ColumnLayout Layout = iota
	RowLayout
	PAXLayout
)

// String returns the layout name.
func (l Layout) String() string {
	switch l {
	case ColumnLayout:
		return "columnar"
	case RowLayout:
		return "row"
	case PAXLayout:
		return "pax"
	default:
		return "unknown"
	}
}

// Compression identifies per-column compression.
type Compression uint8

// Compression schemes tracked as properties. Dict marks dictionary-encoded
// string storage; RLE, BitPack, and FoR mark the segment encodings of
// internal/storage that the optimiser can enumerate direct-on-compressed
// granules against.
const (
	NoCompression Compression = iota
	DictCompression
	RLECompression
	BitPackCompression
	FoRCompression
)

// String returns the compression name.
func (c Compression) String() string {
	switch c {
	case DictCompression:
		return "dict"
	case RLECompression:
		return "rle"
	case BitPackCompression:
		return "bitpack"
	case FoRCompression:
		return "for"
	default:
		return "none"
	}
}

// Corr records an order correlation: Dep is non-decreasing when rows are
// ordered by Key — "correlated" in the paper's property list. It is a value
// relationship (Dep is a monotone function of Key), so it survives any
// reordering or gathering of rows; its power is that whenever an operator
// emits rows in Key order, Dep comes out sorted too.
type Corr struct {
	Key string
	Dep string
}

// String renders e.g. "A↗ID".
func (c Corr) String() string { return c.Dep + "~" + c.Key }

// Set is the property vector of a (sub)plan output.
//
// SortedBy lists the columns that are individually non-decreasing in output
// order (the engine's keys are single columns, so per-column monotonicity is
// the order property of interest). GroupedBy lists columns by which the
// output is clustered: all rows with an equal key are adjacent, but runs are
// in no particular order. Sortedness on a column implies groupedness on it;
// the distinction matters because order-based grouping (OG) only needs
// groupedness, a strictly weaker — and strictly cheaper to establish —
// property.
type Set struct {
	SortedBy  []string
	GroupedBy []string
	Corrs     []Corr
	Cols      map[string]Domain
	ColComp   map[string]Compression
	Layout    Layout
}

// NewSet returns an empty property set (columnar layout, nothing known).
func NewSet() Set {
	return Set{Cols: make(map[string]Domain), ColComp: make(map[string]Compression)}
}

// Clone returns a deep copy.
func (s Set) Clone() Set {
	n := Set{
		SortedBy:  append([]string(nil), s.SortedBy...),
		GroupedBy: append([]string(nil), s.GroupedBy...),
		Corrs:     append([]Corr(nil), s.Corrs...),
		Cols:      make(map[string]Domain, len(s.Cols)),
		ColComp:   make(map[string]Compression, len(s.ColComp)),
		Layout:    s.Layout,
	}
	for k, v := range s.Cols {
		n.Cols[k] = v
	}
	for k, v := range s.ColComp {
		n.ColComp[k] = v
	}
	return n
}

func normalize(cols []string) []string {
	out := append([]string(nil), cols...)
	sort.Strings(out)
	// Deduplicate.
	w := 0
	for i, c := range out {
		if i == 0 || out[w-1] != c {
			out[w] = c
			w++
		}
	}
	return out[:w]
}

// SortedOn reports whether column col is non-decreasing in output order.
func (s Set) SortedOn(col string) bool {
	for _, c := range s.SortedBy {
		if c == col {
			return true
		}
	}
	return false
}

// GroupedOn reports whether equal values of col are adjacent in the output.
// Sortedness implies groupedness.
func (s Set) GroupedOn(col string) bool {
	if s.SortedOn(col) {
		return true
	}
	for _, c := range s.GroupedBy {
		if c == col {
			return true
		}
	}
	return false
}

// Domain returns the domain property of col.
func (s Set) Domain(col string) Domain {
	if s.Cols == nil {
		return Domain{}
	}
	return s.Cols[col]
}

// DenseOn reports whether col has a known dense domain.
func (s Set) DenseOn(col string) bool {
	_, _, ok := s.Domain(col).DenseDomain()
	return ok
}

// CorrelatedWith reports whether dep is known non-decreasing in key order.
// Every column is trivially correlated with itself.
func (s Set) CorrelatedWith(key, dep string) bool {
	if key == dep {
		return true
	}
	for _, c := range s.Corrs {
		if c.Key == key && c.Dep == dep {
			return true
		}
	}
	return false
}

// Dependents returns all columns (other than key) known non-decreasing in
// key order.
func (s Set) Dependents(key string) []string {
	var out []string
	for _, c := range s.Corrs {
		if c.Key == key {
			out = append(out, c.Dep)
		}
	}
	return normalize(out)
}

// WithDomain returns a copy with col's domain set.
func (s Set) WithDomain(col string, d Domain) Set {
	n := s.Clone()
	n.Cols[col] = d
	return n
}

// WithSortedBy returns a copy in which exactly the given columns are
// individually sorted (and clustering knowledge is cleared).
func (s Set) WithSortedBy(cols ...string) Set {
	n := s.Clone()
	n.SortedBy = normalize(cols)
	n.GroupedBy = nil
	return n
}

// WithGroupedBy returns a copy clustered by the given columns with no sort
// order (e.g. the output of partition-based grouping with an unordered
// partition directory).
func (s Set) WithGroupedBy(cols ...string) Set {
	n := s.Clone()
	n.SortedBy = nil
	n.GroupedBy = normalize(cols)
	return n
}

// WithCorr returns a copy recording that dep is non-decreasing in key order.
func (s Set) WithCorr(key, dep string) Set {
	n := s.Clone()
	if !n.CorrelatedWith(key, dep) {
		n.Corrs = MergeCorrs(n.Corrs, []Corr{{Key: key, Dep: dep}})
	}
	return n
}

// NormalizeCorrs sorts cs in place into (key, dep) order and drops duplicates:
// the form every Set keeps its correlations in, so that equal knowledge reads,
// prints and keys alike however it was arrived at.
func NormalizeCorrs(cs []Corr) []Corr {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Key != cs[j].Key {
			return cs[i].Key < cs[j].Key
		}
		return cs[i].Dep < cs[j].Dep
	})
	w := 0
	for i, c := range cs {
		if i == 0 || cs[w-1] != c {
			cs[w] = c
			w++
		}
	}
	return cs[:w]
}

// MergeCorrs returns the normalised correlations of an output that carries
// both a's and b's — the same list whichever input comes first. Sets are
// immutable, so when one side has none the other's list is returned as it is.
func MergeCorrs(a, b []Corr) []Corr {
	switch {
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	}
	out := make([]Corr, 0, len(a)+len(b))
	return NormalizeCorrs(append(append(out, a...), b...))
}

// DropOrder returns a copy with all order/clustering knowledge removed (what
// a property-oblivious operator does to its input knowledge). Correlations
// survive: they are value relationships, not row-order facts.
func (s Set) DropOrder() Set {
	n := s.Clone()
	n.SortedBy = nil
	n.GroupedBy = nil
	return n
}

// Project returns a copy restricted to the given output columns.
func (s Set) Project(keep ...string) Set {
	kept := make(map[string]bool, len(keep))
	for _, c := range keep {
		kept[c] = true
	}
	n := NewSet()
	n.Layout = s.Layout
	for _, c := range s.SortedBy {
		if kept[c] {
			n.SortedBy = append(n.SortedBy, c)
		}
	}
	for _, c := range s.GroupedBy {
		if kept[c] {
			n.GroupedBy = append(n.GroupedBy, c)
		}
	}
	for _, c := range s.Corrs {
		if kept[c.Key] && kept[c.Dep] {
			n.Corrs = append(n.Corrs, c)
		}
	}
	for c, d := range s.Cols {
		if kept[c] {
			n.Cols[c] = d
		}
	}
	for c, cc := range s.ColComp {
		if kept[c] {
			n.ColComp[c] = cc
		}
	}
	return n
}

// Rename returns a copy with column old renamed to new in every component.
func (s Set) Rename(old, new string) Set {
	n := s.Clone()
	for i, c := range n.SortedBy {
		if c == old {
			n.SortedBy[i] = new
		}
	}
	for i, c := range n.GroupedBy {
		if c == old {
			n.GroupedBy[i] = new
		}
	}
	for i := range n.Corrs {
		if n.Corrs[i].Key == old {
			n.Corrs[i].Key = new
		}
		if n.Corrs[i].Dep == old {
			n.Corrs[i].Dep = new
		}
	}
	n.SortedBy = normalize(n.SortedBy)
	n.GroupedBy = normalize(n.GroupedBy)
	if d, ok := n.Cols[old]; ok {
		delete(n.Cols, old)
		n.Cols[new] = d
	}
	if c, ok := n.ColComp[old]; ok {
		delete(n.ColComp, old)
		n.ColComp[new] = c
	}
	return n
}

// Fingerprint returns a canonical, readable string encoding: two sets with
// equal knowledge produce equal strings. It formats every column, so it is
// for tests and debugging; dynamic programming keys its tables on Key.
func (s Set) Fingerprint() string {
	var b strings.Builder
	b.WriteString("s:")
	b.WriteString(strings.Join(normalize(s.SortedBy), ","))
	b.WriteString(";g:")
	b.WriteString(strings.Join(normalize(s.GroupedBy), ","))
	b.WriteString(";r:")
	for _, c := range s.Corrs {
		b.WriteString(c.String())
		b.WriteByte(',')
	}
	b.WriteString(";d:")
	cols := make([]string, 0, len(s.Cols))
	for c := range s.Cols {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		d := s.Cols[c]
		if !d.Known {
			continue
		}
		fmt.Fprintf(&b, "%s=%v,%d,%d,%d;", c, d.Dense, d.Lo, d.Hi, d.Distinct)
	}
	b.WriteString("c:")
	comps := make([]string, 0, len(s.ColComp))
	for c := range s.ColComp {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		fmt.Fprintf(&b, "%s=%s;", c, s.ColComp[c])
	}
	fmt.Fprintf(&b, "l:%s", s.Layout)
	return b.String()
}

// Key is a fixed-size digest of a Set, comparable and usable as a map key: it
// is the memo key of the optimiser's dynamic programming. Two sets get equal
// keys exactly when their Fingerprints are equal (up to a 128-bit hash
// collision), at none of Fingerprint's cost: no formatting, no sorting of map
// keys, no allocation.
type Key struct{ a, b uint64 }

// Component tags keep equal names in different components apart.
const (
	tagSorted uint64 = iota + 1
	tagGrouped
	tagCorr
	tagDomain
	tagComp
	tagLayout
)

// mix is the splitmix64 finaliser: a bijection that spreads every input bit
// over the whole word.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashName is FNV-1a over the column name.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// add folds one element into the key. Addition commutes, so elements of an
// unordered component (a map, a name set) may arrive in any order.
func (k *Key) add(h uint64) {
	k.a += mix(h)
	k.b += mix(h ^ 0x9e3779b97f4a7c15)
}

// addNames folds a name set: order and duplicates do not matter, as in
// Fingerprint, which normalises the list first.
func (k *Key) addNames(tag uint64, names []string) {
next:
	for i, n := range names {
		for _, earlier := range names[:i] {
			if earlier == n {
				continue next
			}
		}
		k.add(mix(hashName(n)) + tag)
	}
}

// Key returns the set's memo key.
func (s Set) Key() Key {
	var k Key
	k.addNames(tagSorted, s.SortedBy)
	k.addNames(tagGrouped, s.GroupedBy)
	// Correlations are a sequence, as in Fingerprint: chain them in order.
	seq := tagCorr
	for _, c := range s.Corrs {
		seq = mix(mix(seq+hashName(c.Key)) + hashName(c.Dep))
	}
	k.add(seq)
	for c, d := range s.Cols {
		if !d.Known {
			continue
		}
		h := mix(hashName(c)) + tagDomain
		h = mix(h + d.Lo)
		h = mix(h + d.Hi)
		last := uint64(d.Distinct) << 1
		if d.Dense {
			last |= 1
		}
		k.add(mix(h + last))
	}
	for c, cc := range s.ColComp {
		k.add(mix(mix(hashName(c))+tagComp) + uint64(cc))
	}
	k.add(mix(tagLayout) + uint64(s.Layout))
	return k
}

// ReqKind identifies what a Requirement asks for.
type ReqKind uint8

// Requirement kinds.
const (
	ReqSorted  ReqKind = iota // Column non-decreasing in input order
	ReqGrouped                // equal Column values adjacent
	ReqDense                  // Column has a known dense domain
)

// String returns the requirement kind name.
func (k ReqKind) String() string {
	switch k {
	case ReqSorted:
		return "sorted"
	case ReqGrouped:
		return "grouped"
	case ReqDense:
		return "dense"
	default:
		return "unknown"
	}
}

// Requirement is a property demanded of an input by an algorithm choice
// (e.g. OG requires ReqGrouped on the grouping key; SPHG requires ReqDense).
type Requirement struct {
	Kind   ReqKind
	Column string
}

// String renders the requirement, e.g. "sorted(k)".
func (r Requirement) String() string {
	return fmt.Sprintf("%s(%s)", r.Kind, r.Column)
}

// Satisfies reports whether the property set meets the requirement.
func (s Set) Satisfies(r Requirement) bool {
	switch r.Kind {
	case ReqSorted:
		return s.SortedOn(r.Column)
	case ReqGrouped:
		return s.GroupedOn(r.Column)
	case ReqDense:
		return s.DenseOn(r.Column)
	default:
		return false
	}
}

// SatisfiesAll reports whether every requirement is met.
func (s Set) SatisfiesAll(reqs []Requirement) bool {
	for _, r := range reqs {
		if !s.Satisfies(r) {
			return false
		}
	}
	return true
}

// AfterSortBy returns the property set after physically sorting by key:
// key becomes sorted, every known dependent of key becomes sorted with it,
// everything else loses order knowledge. Domains and correlations survive.
func (s Set) AfterSortBy(key string) Set {
	n := s.DropOrder()
	cols := append([]string{key}, s.Dependents(key)...)
	n.SortedBy = normalize(cols)
	return n
}

// FromStats converts column statistics (storage layer) into a Domain.
// Defined here rather than importing storage to keep props dependency-free;
// callers pass the raw numbers.
func FromStats(rows int, min, max uint64, distinct int, dense, exact bool) Domain {
	if rows == 0 || !exact {
		return Domain{}
	}
	return Domain{Known: true, Dense: dense, Lo: min, Hi: max, Distinct: int64(distinct)}
}
