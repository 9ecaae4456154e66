// Package props implements DQO plan properties (paper Section 2.2).
//
// In classical dynamic programming only "interesting orders" survive as plan
// properties. The paper argues an interesting order is "just one tiny special
// case": density, clustering, correlation, compression, layout and more are
// equally property-like and must not be discarded between optimisation steps.
// What is kept is what a later choice reads: a Set carries per-column
// sortedness and clustering, order correlations, and each column's key
// domain (bounds, distinct count, density). A dimension no decision reads
// would only split the DP's entries, so compression is not one: the scan
// granule reads it from the relation's encoding. The engine is columnar
// throughout, so layout is not one either.
//
// This package is the shared vocabulary: a Table numbers one query's columns,
// a Set describes what is known about a (sub)plan's output in terms of those
// numbers, a Requirement describes what a consumer needs, and subsumption
// between the two drives both optimisers (SQO uses a restricted view of the
// same machinery).
package props

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"dqo/internal/storage"
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

// Col is a column's ordinal in its query's Table.
type Col uint8

// MaxCols is how many columns a Table numbers, so that a Cols is one word.
const MaxCols = 64

// Cols is a set of column ordinals, one bit each.
type Cols uint64

// ColsOf returns the set holding the given columns.
func ColsOf(cs ...Col) Cols {
	var s Cols
	for _, c := range cs {
		s |= 1 << c
	}
	return s
}

// Has reports whether c is in the set.
func (s Cols) Has(c Col) bool { return s>>c&1 != 0 }

// each calls fn for every column of the set in ordinal order, which is the
// order of the columns' names.
func (s Cols) each(fn func(Col)) {
	for w := uint64(s); w != 0; w &= w - 1 {
		fn(Col(bits.TrailingZeros64(w)))
	}
}

// Corr records an order correlation: Dep is non-decreasing when rows are
// ordered by Key — "correlated" in the paper's property list. It is a value
// relationship (Dep is a monotone function of Key), so it survives any
// reordering or gathering of rows; its power is that whenever an operator
// emits rows in Key order, Dep comes out sorted too.
type Corr struct{ Key, Dep Col }

// Column is a Table's entry for one name: the kind and key domain of the
// first relation that holds it, the base every Set reads unless it overrides.
type Column struct {
	Name string
	Kind storage.Kind
	Dom  Domain
	held bool // a relation holds it (a key name may not)
}

// Table numbers the columns one query names, once, in name order; and the
// correlations its relations declare, in (key, dep) order, over which a Set
// holds a bitmask. It is immutable once built and shared by every Set of the
// query and by the finished plan, which reads names back through it.
type Table struct {
	cols  []Column
	corrs []Corr
	dense bool
}

// NewTable numbers the key columns keys and the columns of rels: the keys
// first when there are more than MaxCols names, the rest in the order the
// relations hold them. A column left without an ordinal is one nothing is
// known about, and a name that relations hold in different kinds has none
// (KindInvalid). With dense false the table hides density, so no domain of
// the query's sets is dense (shallow enumeration).
func NewTable(rels []*storage.Relation, keys []string, dense bool) *Table {
	t := &Table{cols: make([]Column, 0, 16), dense: dense}
	add := func(name string, c *storage.Column) {
		i := 0
		for i < len(t.cols) && t.cols[i].Name < name {
			i++
		}
		if i == len(t.cols) || t.cols[i].Name != name {
			if len(t.cols) == MaxCols {
				return
			}
			t.cols = slices.Insert(t.cols, i, Column{Name: name})
		}
		switch e := &t.cols[i]; {
		case c == nil:
		case !e.held:
			e.held, e.Kind, e.Dom = true, c.Kind(), t.domainOf(c)
		case e.Kind != c.Kind():
			e.Kind = storage.KindInvalid
		}
	}
	for _, k := range keys {
		add(k, nil)
	}
	for _, r := range rels {
		for _, c := range r.Columns() {
			add(c.Name(), c)
		}
	}
	for _, r := range rels {
		for _, p := range r.Corrs() {
			k, okk := t.Col(p[0])
			d, okd := t.Col(p[1])
			if okk && okd && len(t.corrs) < 64 && !slices.Contains(t.corrs, Corr{k, d}) {
				t.corrs = append(t.corrs, Corr{k, d})
			}
		}
	}
	slices.SortFunc(t.corrs, func(a, b Corr) int { return int(a.Key)<<8 + int(a.Dep) - int(b.Key)<<8 - int(b.Dep) })
	return t
}

// domainOf is the domain a set of the table knows for a stored column.
func (t *Table) domainOf(c *storage.Column) Domain {
	if !c.Kind().Integer() {
		return Domain{}
	}
	st := c.Stats()
	d := FromStats(st.Rows, st.Min, st.Max, st.Distinct, st.Dense, st.Exact)
	d.Dense = d.Dense && t.dense
	return d
}

// Col returns the ordinal of the named column.
func (t *Table) Col(name string) (Col, bool) {
	for i := range t.cols {
		if t.cols[i].Name == name {
			return Col(i), true
		}
	}
	return 0, false
}

// Column returns the table's entry for c.
func (t *Table) Column(c Col) Column { return t.cols[c] }

// Scan returns the property set of a scan of rel: its sorted integer
// columns, their domains and its declared correlations.
func (t *Table) Scan(rel *storage.Relation) Set {
	s := Set{tab: t}
	var over Cols
	var doms [MaxCols]Domain
	for _, c := range rel.Columns() {
		o, ok := t.Col(c.Name())
		if !ok || !c.Kind().Integer() {
			continue
		}
		if st := c.Stats(); st.Sorted && st.Rows > 0 {
			s.Sorted |= 1 << o
		}
		if d := t.domainOf(c); d.Known {
			s.known |= 1 << o
			if d != t.cols[o].Dom {
				over, doms[o] = over|1<<o, d
			}
		}
	}
	if over != 0 {
		s.over, s.overCols = &overrides{cols: over}, over
		over.each(func(c Col) { s.over.doms = append(s.over.doms, doms[c]) })
	}
	for i, p := range t.corrs {
		if slices.Contains(rel.Corrs(), [2]string{t.cols[p.Key].Name, t.cols[p.Dep].Name}) {
			s.corrs |= 1 << i
		}
	}
	return s
}

// overrides are the domains a set knows that differ from its table's, one
// per column of cols in ordinal order.
type overrides struct {
	cols Cols
	doms []Domain
}

func (o *overrides) rank(c Col) int { return bits.OnesCount64(uint64(o.cols) & (1<<c - 1)) }

// Set is the property vector of a (sub)plan output, over one Table.
//
// Sorted holds the columns that are individually non-decreasing in output
// order (the engine's keys are single columns). Grouped holds columns by
// which the output is clustered: rows with an equal key are adjacent, runs in
// no particular order. Sortedness implies groupedness; the distinction
// matters because order-based grouping (OG) needs only groupedness, which is
// cheaper to establish. The set knows the table's domain of each column in
// known, except where it overrides it (two relations of the query that hold
// a name alike give it one base domain). A Set is a value of a few words:
// derivations copy it and change what they change; only the overrides are
// shared, and nothing writes them.
type Set struct {
	Sorted, Grouped Cols
	known, overCols Cols
	corrs           uint64
	over            *overrides
	tab             *Table
}

// SortedOn reports whether column c is non-decreasing in output order.
func (s Set) SortedOn(c Col) bool { return s.Sorted.Has(c) }

// GroupedOn reports whether equal values of c are adjacent in the output.
// Sortedness implies groupedness.
func (s Set) GroupedOn(c Col) bool { return (s.Sorted | s.Grouped).Has(c) }

// Domain returns the domain property of c.
func (s Set) Domain(c Col) Domain {
	switch {
	case !s.known.Has(c):
		return Domain{}
	case s.overCols.Has(c):
		return s.over.doms[s.over.rank(c)]
	}
	return s.tab.cols[c].Dom
}

// DenseOn reports whether c has a known dense domain.
func (s Set) DenseOn(c Col) bool {
	_, _, ok := s.Domain(c).DenseDomain()
	return ok
}

// Dependents returns the columns known non-decreasing in key order.
func (s Set) Dependents(key Col) Cols {
	var deps Cols
	for w := s.corrs; w != 0; w &= w - 1 {
		if p := s.tab.corrs[bits.TrailingZeros64(w)]; p.Key == key {
			deps |= 1 << p.Dep
		}
	}
	return deps
}

// DropOrder returns a copy without order/clustering knowledge (what a
// property-oblivious operator does). Correlations are value facts: they stay.
func (s Set) DropOrder() Set {
	s.Sorted, s.Grouped = 0, 0
	return s
}

// AfterSortBy returns the set after sorting by key: key and its known
// dependents sorted, no other order; domains and correlations stay.
func (s Set) AfterSortBy(key Col) Set {
	s.Sorted, s.Grouped = 1<<key|s.Dependents(key), 0
	return s
}

// Project returns a copy restricted to the columns of keep.
func (s Set) Project(keep Cols) Set {
	s.Sorted &= keep
	s.Grouped &= keep
	s.known &= keep
	s.overCols &= keep
	for w := s.corrs; w != 0; w &= w - 1 {
		if i := bits.TrailingZeros64(w); !keep.Has(s.tab.corrs[i].Key) || !keep.Has(s.tab.corrs[i].Dep) {
			s.corrs &^= 1 << i
		}
	}
	return s
}

// Union returns what is known of an output carrying the columns of both s
// and r, with no order: the domains of both, s's where both know one, and
// the correlations of both.
func (s Set) Union(r Set) Set {
	out := Set{known: s.known | r.known, corrs: s.corrs | r.corrs, over: s.over, overCols: s.overCols, tab: s.tab}
	if theirs := r.overCols &^ s.known; theirs != 0 {
		out.over, out.overCols = r.over, theirs
		if s.overCols != 0 {
			merged := &overrides{cols: s.overCols | theirs}
			merged.cols.each(func(c Col) {
				d := r.Domain(c)
				if s.known.Has(c) {
					d = s.Domain(c)
				}
				merged.doms = append(merged.doms, d)
			})
			out.over, out.overCols = merged, merged.cols
		}
	}
	return out
}

// names renders the columns of cs, in name order.
func (s Set) names(cs Cols) string {
	var out []string
	cs.each(func(c Col) { out = append(out, s.tab.cols[c].Name) })
	return strings.Join(out, ",")
}

// corrStrings renders the correlations, e.g. "A~ID", in (key, dep) order.
func (s Set) corrStrings() []string {
	var out []string
	for w := s.corrs; w != 0; w &= w - 1 {
		p := s.tab.corrs[bits.TrailingZeros64(w)]
		out = append(out, s.tab.cols[p.Dep].Name+"~"+s.tab.cols[p.Key].Name)
	}
	return out
}

// Fingerprint returns a canonical, readable string encoding: two sets with
// equal knowledge produce equal strings, whatever table numbers them. It
// formats every column, so it is for tests and debugging; dynamic
// programming keys its tables on Key.
func (s Set) Fingerprint() string {
	var b strings.Builder
	corrs := strings.Join(append(s.corrStrings(), ""), ",") // each followed by a comma
	fmt.Fprintf(&b, "s:%s;g:%s;r:%s;d:", s.names(s.Sorted), s.names(s.Grouped), corrs)
	s.known.each(func(c Col) {
		d := s.Domain(c)
		fmt.Fprintf(&b, "%s=%v,%d,%d,%d;", s.tab.cols[c].Name, d.Dense, d.Lo, d.Hi, d.Distinct)
	})
	return b.String()
}

// String renders what a plan's consumer can use, as EXPLAIN prints it:
// e.g. "sorted{ID} dense{A,ID} corr{A~ID}".
func (s Set) String() string {
	var dense Cols
	s.known.each(func(c Col) {
		if s.DenseOn(c) {
			dense |= 1 << c
		}
	})
	var parts []string
	for i, cs := range [...]Cols{s.Sorted, s.Grouped, dense} {
		if cs != 0 {
			parts = append(parts, [...]string{"sorted", "grouped", "dense"}[i]+"{"+s.names(cs)+"}")
		}
	}
	for _, c := range s.corrStrings() {
		parts = append(parts, "corr{"+c+"}")
	}
	return strings.Join(parts, " ")
}

// Key is the memo key of the optimiser's dynamic programming: a 128-bit mix
// of a set's bitmasks and overridden domains, no name in sight. Two sets of
// one table get equal keys exactly when their Fingerprints are equal.
type Key struct{ a, b uint64 }

// mix is the splitmix64 finaliser, a bijection that spreads every bit.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add chains one word into both halves of the key.
func (k *Key) add(w uint64) {
	k.a = mix(k.a + w)
	k.b = mix(k.b ^ w + 0x9e3779b97f4a7c15)
}

// Key returns the set's memo key.
func (s Set) Key() Key {
	k := Key{a: 1, b: 2}
	for _, w := range [...]uint64{uint64(s.Sorted), uint64(s.Grouped), uint64(s.known), s.corrs} {
		k.add(w)
	}
	for w := uint64(s.overCols & s.known); w != 0; w &= w - 1 {
		d := s.Domain(Col(bits.TrailingZeros64(w)))
		flags := uint64(bits.TrailingZeros64(w)) << 1
		if d.Dense {
			flags |= 1
		}
		for _, v := range [...]uint64{flags, d.Lo, d.Hi, uint64(d.Distinct)} {
			k.add(v)
		}
	}
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
	if k > ReqDense {
		return "unknown"
	}
	return [...]string{"sorted", "grouped", "dense"}[k]
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

// Satisfies reports whether the property set meets the requirement. A
// column its table does not number meets none.
func (s Set) Satisfies(r Requirement) bool {
	switch c, ok := s.tab.Col(r.Column); {
	case !ok:
		return false
	case r.Kind == ReqSorted:
		return s.SortedOn(c)
	case r.Kind == ReqGrouped:
		return s.GroupedOn(c)
	case r.Kind == ReqDense:
		return s.DenseOn(c)
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

// FromStats converts column statistics (storage layer) into a Domain; rows
// of none or inexact statistics give an unknown domain.
func FromStats(rows int, min, max uint64, distinct int, dense, exact bool) Domain {
	if rows == 0 || !exact {
		return Domain{}
	}
	return Domain{Known: true, Dense: dense, Lo: min, Hi: max, Distinct: int64(distinct)}
}
