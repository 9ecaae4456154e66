package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dqo/internal/qerr"
)

// Relation is a named, ordered collection of equal-length columns. Columns
// are found by name with a scan: relations are a handful of columns wide, and
// the executor builds one per morsel, so a name index would cost more to
// build than it saves.
type Relation struct {
	name  string
	cols  []*Column
	corrs [][2]string // declared order correlations: dep ~ key
}

// NewRelation returns a relation over cols. All columns must have equal
// length and distinct names.
func NewRelation(name string, cols ...*Column) (*Relation, error) {
	r := &Relation{name: name, cols: make([]*Column, 0, len(cols))}
	for _, c := range cols {
		if err := r.addColumn(c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustNewRelation is NewRelation that panics on error, for tests and
// generators building relations from known-consistent data.
func MustNewRelation(name string, cols ...*Column) *Relation {
	r, err := NewRelation(name, cols...)
	if err != nil {
		panic(err)
	}
	return r
}

func (r *Relation) addColumn(c *Column) error {
	if _, dup := r.Column(c.Name()); dup {
		return fmt.Errorf("storage: relation %q: duplicate column %q", r.name, c.Name())
	}
	if len(r.cols) > 0 && c.Len() != r.cols[0].Len() {
		return fmt.Errorf("storage: relation %q: column %q has %d rows, want %d",
			r.name, c.Name(), c.Len(), r.cols[0].Len())
	}
	r.cols = append(r.cols, c)
	return nil
}

// AddColumn appends a column. It fails on name clashes or length mismatches.
func (r *Relation) AddColumn(c *Column) error { return r.addColumn(c) }

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// DeclareCorr records the order correlation "dep is non-decreasing when the
// rows are ordered by key" — i.e. dep is a monotone function of key (the
// "correlated" data property of the paper's Section 2.2). Declarations come
// from generators or loaders that know the relationship by construction; use
// VerifyCorr to check one against the data.
func (r *Relation) DeclareCorr(key, dep string) {
	r.MustColumn(key)
	r.MustColumn(dep)
	r.corrs = append(r.corrs, [2]string{key, dep})
}

// Corrs returns the declared order correlations as (key, dep) pairs.
func (r *Relation) Corrs() [][2]string { return r.corrs }

// VerifyCorr checks a declared correlation against the data: it orders the
// rows by key (stably) and confirms dep is non-decreasing. O(n log n); meant
// for tests and loaders, not hot paths.
func (r *Relation) VerifyCorr(key, dep string) error {
	kc, ok := r.Column(key)
	if !ok {
		return fmt.Errorf("storage: VerifyCorr: no column %q", key)
	}
	dc, ok := r.Column(dep)
	if !ok {
		return fmt.Errorf("storage: VerifyCorr: no column %q", dep)
	}
	n := kc.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return kc.KeyAt(idx[a]) < kc.KeyAt(idx[b]) })
	for i := 1; i < n; i++ {
		if dc.KeyAt(idx[i-1]) > dc.KeyAt(idx[i]) {
			return fmt.Errorf("storage: correlation %s~%s violated at key %d", dep, key, kc.KeyAt(idx[i]))
		}
	}
	return nil
}

// NumRows returns the number of rows (0 for a column-less relation).
func (r *Relation) NumRows() int {
	if len(r.cols) == 0 {
		return 0
	}
	return r.cols[0].Len()
}

// NumCols returns the number of columns.
func (r *Relation) NumCols() int { return len(r.cols) }

// Columns returns the columns in declaration order. The slice is shared; do
// not mutate.
func (r *Relation) Columns() []*Column { return r.cols }

// Column returns the column with the given name.
func (r *Relation) Column(name string) (*Column, bool) {
	for _, c := range r.cols {
		if c.name == name {
			return c, true
		}
	}
	return nil, false
}

// MustColumn is Column that panics when the column is missing.
func (r *Relation) MustColumn(name string) *Column {
	c, ok := r.Column(name)
	if !ok {
		panic(fmt.Sprintf("storage: relation %q has no column %q (have %s)",
			r.name, name, strings.Join(r.ColumnNames(), ", ")))
	}
	return c
}

// ColumnNames returns the column names in declaration order.
func (r *Relation) ColumnNames() []string {
	names := make([]string, len(r.cols))
	for i, c := range r.cols {
		names[i] = c.Name()
	}
	return names
}

// Project returns a relation consisting of the named columns, shared (not
// copied) with r.
func (r *Relation) Project(names ...string) (*Relation, error) {
	cols := make([]*Column, 0, len(names))
	for _, n := range names {
		c, ok := r.Column(n)
		if !ok {
			return nil, fmt.Errorf("storage: relation %q has no column %q", r.name, n)
		}
		cols = append(cols, c)
	}
	return NewRelation(r.name, cols...)
}

// Gather returns a relation holding rows idx of r in that order, with every
// column gathered into arrays drawn from s (nil: fresh arrays).
func (r *Relation) Gather(s *Scratch, idx []int32) *Relation {
	cols := make([]*Column, len(r.cols))
	for i, c := range r.cols {
		cols[i] = c.Gather(s, idx)
	}
	return MustNewRelation(r.name, cols...)
}

// minGatherPar is the smallest gather worth forking goroutines for.
const minGatherPar = 1 << 14

// GatherPar is Gather with the row copies fanned across workers: every
// column's output is preallocated and contiguous ranges of idx are written
// into disjoint output ranges concurrently, so the result is identical to
// Gather for any worker count. The outputs are drawn from s, as Gather's.
func (r *Relation) GatherPar(s *Scratch, idx []int32, workers int) *Relation {
	if workers <= 1 || len(idx) < minGatherPar {
		return r.Gather(s, idx)
	}
	cols := make([]*Column, len(r.cols))
	chunk := (len(idx) + workers - 1) / workers
	var box qerr.PanicBox
	var wg sync.WaitGroup
	for ci, c := range r.cols {
		dst := c.newGatherDst(s, len(idx))
		cols[ci] = dst
		for lo := 0; lo < len(idx); lo += chunk {
			hi := lo + chunk
			if hi > len(idx) {
				hi = len(idx)
			}
			wg.Add(1)
			go func(src, dst *Column, lo, hi int) {
				defer wg.Done()
				defer box.Guard()
				src.gatherRange(dst, idx, lo, hi)
			}(c, dst, lo, hi)
		}
	}
	wg.Wait()
	// A worker panic (e.g. an out-of-range row id) must not kill the process
	// from a lost goroutine; re-panic on the caller so the query-level
	// recover converts it to a typed internal error.
	box.Rethrow()
	return MustNewRelation(r.name, cols...)
}

// Row returns the dynamically typed values of row i, for printing.
func (r *Relation) Row(i int) []Value {
	out := make([]Value, len(r.cols))
	for j, c := range r.cols {
		out[j] = c.ValueAt(i)
	}
	return out
}

// Equal reports whether two relations have identical schemas (names, kinds,
// order) and identical row content in order.
func (r *Relation) Equal(o *Relation) bool {
	if len(r.cols) != len(o.cols) || r.NumRows() != o.NumRows() {
		return false
	}
	for i, c := range r.cols {
		oc := o.cols[i]
		if c.Name() != oc.Name() || !c.Equal(oc) {
			return false
		}
	}
	return true
}

// String renders up to 10 rows as an aligned table, for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d rows)\n", r.name, r.NumRows())
	b.WriteString(strings.Join(r.ColumnNames(), "\t"))
	b.WriteByte('\n')
	n := r.NumRows()
	if n > 10 {
		n = 10
	}
	for i := 0; i < n; i++ {
		vals := r.Row(i)
		parts := make([]string, len(vals))
		for j, v := range vals {
			parts[j] = v.String()
		}
		b.WriteString(strings.Join(parts, "\t"))
		b.WriteByte('\n')
	}
	if r.NumRows() > 10 {
		fmt.Fprintf(&b, "... (%d more rows)\n", r.NumRows()-10)
	}
	return b.String()
}
