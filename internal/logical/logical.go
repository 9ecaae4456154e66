// Package logical defines the logical query algebra — the paper's "cell
// level": scans, filters, projections, equi-joins, group-by, and sort —
// together with cardinality estimation and the derivation of base-table
// properties from storage statistics.
//
// Logical nodes carry no algorithmic decisions whatsoever; turning them into
// granule trees and physical plans is the optimiser's job (internal/core via
// internal/physio).
package logical

import (
	"fmt"
	"sort"
	"strings"

	"dqo/internal/expr"
	"dqo/internal/props"
	"dqo/internal/storage"
)

// Node is a logical plan operator.
type Node interface {
	// Columns returns the output schema (column names in order).
	Columns() []string
	// Children returns the input operators.
	Children() []Node
	// String returns a one-line description of this operator alone.
	String() string
}

// Scan reads a stored base relation.
type Scan struct {
	Table string
	Rel   *storage.Relation
}

// Columns implements Node.
func (s *Scan) Columns() []string { return s.Rel.ColumnNames() }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// String implements Node.
func (s *Scan) String() string { return fmt.Sprintf("Scan(%s)", s.Table) }

// Filter keeps the rows satisfying Pred.
type Filter struct {
	Input Node
	Pred  expr.Expr
}

// Columns implements Node.
func (f *Filter) Columns() []string { return f.Input.Columns() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// String implements Node.
func (f *Filter) String() string { return fmt.Sprintf("Filter(%s)", f.Pred) }

// Project restricts the output to Cols.
type Project struct {
	Input Node
	Cols  []string
}

// Columns implements Node.
func (p *Project) Columns() []string { return p.Cols }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// String implements Node.
func (p *Project) String() string { return "Project(" + strings.Join(p.Cols, ", ") + ")" }

// Join is an inner equi-join on LeftKey = RightKey.
type Join struct {
	Left, Right       Node
	LeftKey, RightKey string
}

// Columns implements Node: left columns then right columns, with clashing
// right names suffixed "_r" (mirroring physical.JoinRel).
func (j *Join) Columns() []string {
	left, right := j.Left.Columns(), j.Right.Columns()
	out := append(make([]string, 0, len(left)+len(right)), left...)
	used := make(map[string]bool, len(out))
	for _, c := range out {
		used[c] = true
	}
	for _, c := range right {
		if used[c] {
			c += "_r"
		}
		used[c] = true
		out = append(out, c)
	}
	return out
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// String implements Node.
func (j *Join) String() string { return fmt.Sprintf("Join(%s = %s)", j.LeftKey, j.RightKey) }

// GroupBy groups on Key and computes Aggs.
type GroupBy struct {
	Input Node
	Key   string
	Aggs  []expr.AggSpec
}

// Columns implements Node.
func (g *GroupBy) Columns() []string {
	out := []string{g.Key}
	for _, a := range g.Aggs {
		out = append(out, a.OutName())
	}
	return out
}

// Children implements Node.
func (g *GroupBy) Children() []Node { return []Node{g.Input} }

// String implements Node.
func (g *GroupBy) String() string {
	parts := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		parts[i] = a.String()
	}
	return fmt.Sprintf("GroupBy(%s; %s)", g.Key, strings.Join(parts, ", "))
}

// Sort orders the output by Key ascending.
type Sort struct {
	Input Node
	Key   string
}

// Columns implements Node.
func (s *Sort) Columns() []string { return s.Input.Columns() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// String implements Node.
func (s *Sort) String() string { return fmt.Sprintf("Sort(%s)", s.Key) }

// Format renders the whole plan as an indented tree.
func Format(n Node) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// Validate checks that every referenced column exists in the corresponding
// input schema.
func Validate(n Node) error {
	has := func(cols []string, c string) bool {
		for _, x := range cols {
			if x == c {
				return true
			}
		}
		return false
	}
	switch n := n.(type) {
	case *Scan:
		if n.Rel == nil {
			return fmt.Errorf("logical: scan of %q has no relation bound", n.Table)
		}
		return nil
	case *Filter:
		in := n.Input.Columns()
		for _, c := range n.Pred.Columns(nil) {
			if !has(in, c) {
				return fmt.Errorf("logical: filter references unknown column %q", c)
			}
		}
		return Validate(n.Input)
	case *Project:
		in := n.Input.Columns()
		for _, c := range n.Cols {
			if !has(in, c) {
				return fmt.Errorf("logical: projection references unknown column %q", c)
			}
		}
		return Validate(n.Input)
	case *Join:
		if !has(n.Left.Columns(), n.LeftKey) {
			return fmt.Errorf("logical: join references unknown left key %q", n.LeftKey)
		}
		if !has(n.Right.Columns(), n.RightKey) {
			return fmt.Errorf("logical: join references unknown right key %q", n.RightKey)
		}
		if err := Validate(n.Left); err != nil {
			return err
		}
		return Validate(n.Right)
	case *GroupBy:
		in := n.Input.Columns()
		if !has(in, n.Key) {
			return fmt.Errorf("logical: group-by references unknown key %q", n.Key)
		}
		for _, a := range n.Aggs {
			if err := a.Validate(); err != nil {
				return err
			}
			if a.Col != "" && !has(in, a.Col) {
				return fmt.Errorf("logical: aggregate references unknown column %q", a.Col)
			}
		}
		return Validate(n.Input)
	case *Sort:
		if !has(n.Input.Columns(), n.Key) {
			return fmt.Errorf("logical: sort references unknown key %q", n.Key)
		}
		return Validate(n.Input)
	default:
		return fmt.Errorf("logical: unknown node type %T", n)
	}
}

// ScanProps derives the base property set of a stored relation from its
// column statistics and declared correlations.
func ScanProps(rel *storage.Relation) props.Set {
	// The set is built in place rather than through WithSortedBy/WithCorr:
	// those copy the component they change, and a fresh unshared set has
	// nothing to protect. The invariants they maintain — SortedBy sorted and
	// duplicate-free, Corrs deduplicated and in (key, dep) order — are kept
	// here.
	s := props.NewSet()
	for _, c := range rel.Columns() {
		if !c.Kind().Integer() {
			continue
		}
		st := c.Stats()
		if st.Sorted && st.Rows > 0 {
			s.SortedBy = append(s.SortedBy, c.Name())
		}
		s.Cols[c.Name()] = props.FromStats(st.Rows, st.Min, st.Max, st.Distinct, st.Dense, st.Exact)
	}
	sort.Strings(s.SortedBy) // column names are unique, so sorting normalises
	for _, corr := range rel.Corrs() {
		s.Corrs = append(s.Corrs, props.Corr{Key: corr[0], Dep: corr[1]})
	}
	s.Corrs = props.NormalizeCorrs(s.Corrs)
	return s
}

// Estimator memoises cardinality and distinct-count estimates over logical
// trees. Estimate and ColDistinct are mutually recursive — a join's
// cardinality needs its children's distinct counts, which in turn need the
// children's cardinalities — so a plain recursive walk recomputes the same
// subtree many times over. Trees are immutable during planning, which makes
// the per-node results cacheable; one Estimator shared across an optimiser
// run (the greedy tier asks about every node it visits) turns the quadratic
// re-walks into single visits.
//
// The zero value is not usable; call NewEstimator.
type Estimator struct {
	rows map[Node]float64
	dist map[distKey]float64
}

type distKey struct {
	n   Node
	col string
}

// NewEstimator returns an empty Estimator. Results are cached by node
// identity, so the estimator must be discarded if a tree it has seen is
// mutated or its base statistics change.
func NewEstimator() *Estimator {
	return &Estimator{rows: make(map[Node]float64), dist: make(map[distKey]float64)}
}

// Estimate returns the estimated output cardinality of a plan. Estimates use
// exact base statistics where available and textbook heuristics elsewhere
// (1/3 for non-equality filters, independence for joins).
func Estimate(n Node) float64 { return NewEstimator().Estimate(n) }

// Estimate is the memoised form of the package-level Estimate.
func (e *Estimator) Estimate(n Node) float64 {
	if v, ok := e.rows[n]; ok {
		return v
	}
	v := e.estimate(n)
	e.rows[n] = v
	return v
}

func (e *Estimator) estimate(n Node) float64 {
	switch n := n.(type) {
	case *Scan:
		return float64(n.Rel.NumRows())
	case *Filter:
		in := e.Estimate(n.Input)
		return in * e.filterSelectivity(n)
	case *Project:
		return e.Estimate(n.Input)
	case *Join:
		l, r := e.Estimate(n.Left), e.Estimate(n.Right)
		dl := e.ColDistinct(n.Left, n.LeftKey)
		dr := e.ColDistinct(n.Right, n.RightKey)
		d := dl
		if dr > d {
			d = dr
		}
		if d < 1 {
			return l * r
		}
		return l * r / d
	case *GroupBy:
		return e.ColDistinct(n.Input, n.Key)
	case *Sort:
		return e.Estimate(n.Input)
	default:
		return 0
	}
}

// filterSelectivity estimates the fraction of rows a predicate keeps:
// equality against a literal on a column with d distinct values keeps 1/d;
// everything else uses the classic 1/3.
func (e *Estimator) filterSelectivity(f *Filter) float64 {
	if b, ok := f.Pred.(expr.Bin); ok && b.Op == expr.OpEq {
		if col, ok := b.L.(expr.Col); ok {
			if _, isCol := b.R.(expr.Col); !isCol {
				if d := e.ColDistinct(f.Input, col.Name); d >= 1 {
					return 1 / d
				}
			}
		}
	}
	return 1.0 / 3
}

// ColDistinct estimates the number of distinct values of col in the output
// of n. Returns 0 when nothing is known.
func ColDistinct(n Node, col string) float64 { return NewEstimator().ColDistinct(n, col) }

// ColDistinct is the memoised form of the package-level ColDistinct.
func (e *Estimator) ColDistinct(n Node, col string) float64 {
	k := distKey{n, col}
	if v, ok := e.dist[k]; ok {
		return v
	}
	v := e.colDistinct(n, col)
	e.dist[k] = v
	return v
}

func (e *Estimator) colDistinct(n Node, col string) float64 {
	switch n := n.(type) {
	case *Scan:
		c, ok := n.Rel.Column(col)
		if !ok {
			return 0
		}
		st := c.Stats()
		if !st.Exact {
			return 0
		}
		return float64(st.Distinct)
	case *Filter:
		d := e.ColDistinct(n.Input, col)
		if rows := e.Estimate(n); d > rows {
			return rows
		}
		return d
	case *Project:
		return e.ColDistinct(n.Input, col)
	case *Join:
		// Try left first (its names win on clashes), then right with the
		// suffix stripped.
		for _, c := range n.Left.Columns() {
			if c == col {
				d := e.ColDistinct(n.Left, col)
				if rows := e.Estimate(n); d > rows {
					return rows
				}
				return d
			}
		}
		rcol := strings.TrimSuffix(col, "_r")
		d := e.ColDistinct(n.Right, rcol)
		if rows := e.Estimate(n); d > rows {
			return rows
		}
		return d
	case *GroupBy:
		if col == n.Key {
			return e.ColDistinct(n.Input, n.Key)
		}
		return e.ColDistinct(n.Input, n.Key) // one row per group bounds everything
	case *Sort:
		return e.ColDistinct(n.Input, col)
	default:
		return 0
	}
}

// FilterPreds returns the predicate of every Filter node in pre-order
// (root first). Bind produces Filters only from WHERE conjuncts and HAVING,
// and places each conjunct by the columns it names alone (PushFilters), so
// for two statements sharing a fingerprint the sequences are positionally
// aligned — the contract plan-template rebinding relies on.
func FilterPreds(n Node) []expr.Expr { return appendFilterPreds(nil, n) }

func appendFilterPreds(out []expr.Expr, n Node) []expr.Expr {
	// The unary nodes are walked without their Children slice: this runs
	// once per execution of a cached plan template.
	switch n := n.(type) {
	case *Filter:
		return appendFilterPreds(append(out, n.Pred), n.Input)
	case *Project:
		return appendFilterPreds(out, n.Input)
	case *GroupBy:
		return appendFilterPreds(out, n.Input)
	case *Sort:
		return appendFilterPreds(out, n.Input)
	}
	for _, c := range n.Children() {
		out = appendFilterPreds(out, c)
	}
	return out
}
