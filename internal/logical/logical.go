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
	"slices"
	"strings"

	"dqo/internal/expr"
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
func (j *Join) Columns() []string { return joinColumns(j.Left.Columns(), j.Right.Columns()) }

// joinColumns names a join's output: the left input's columns, then the
// right's, each suffixed "_r" when its name is taken.
func joinColumns(left, right []string) []string {
	out := append(make([]string, 0, len(left)+len(right)), left...)
	for _, c := range right {
		if slices.Contains(out, c) {
			c += "_r"
		}
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
// input schema. Of several errors it reports the first in pre-order.
func Validate(n Node) error {
	_, err := validate(n, nil)
	return err
}

// NewEstimatorFor validates n, as Validate, and returns an Estimator for its
// tree that keeps the output columns validation derives for the left input
// of every join: a distinct count asked through a join looks its column up
// there instead of deriving the input's columns again.
func NewEstimatorFor(n Node) (*Estimator, error) {
	e := NewEstimator()
	if _, err := validate(n, e); err != nil {
		return nil, err
	}
	return e, nil
}

// validate returns n's output columns, derived once per node from its
// children's, and the first error of its subtree in pre-order: its own
// before its inputs', the left input's before the right's. A non-nil e
// keeps every join's left input columns.
func validate(n Node, e *Estimator) ([]string, error) {
	switch n := n.(type) {
	case *Scan:
		if n.Rel == nil {
			return nil, fmt.Errorf("logical: scan of %q has no relation bound", n.Table)
		}
		return n.Rel.ColumnNames(), nil
	case *Filter:
		in, err := validate(n.Input, e)
		for _, c := range n.Pred.Columns(nil) {
			if !slices.Contains(in, c) {
				return nil, fmt.Errorf("logical: filter references unknown column %q", c)
			}
		}
		return in, err
	case *Project:
		in, err := validate(n.Input, e)
		for _, c := range n.Cols {
			if !slices.Contains(in, c) {
				return nil, fmt.Errorf("logical: projection references unknown column %q", c)
			}
		}
		return n.Cols, err
	case *Join:
		left, lerr := validate(n.Left, e)
		right, rerr := validate(n.Right, e)
		switch {
		case !slices.Contains(left, n.LeftKey):
			return nil, fmt.Errorf("logical: join references unknown left key %q", n.LeftKey)
		case !slices.Contains(right, n.RightKey):
			return nil, fmt.Errorf("logical: join references unknown right key %q", n.RightKey)
		case lerr != nil:
			return nil, lerr
		}
		if e != nil {
			e.lefts = append(e.lefts, joinLeft{n, left})
		}
		return joinColumns(left, right), rerr
	case *GroupBy:
		in, err := validate(n.Input, e)
		if !slices.Contains(in, n.Key) {
			return nil, fmt.Errorf("logical: group-by references unknown key %q", n.Key)
		}
		for _, a := range n.Aggs {
			if verr := a.Validate(); verr != nil {
				return nil, verr
			}
			if a.Col != "" && !slices.Contains(in, a.Col) {
				return nil, fmt.Errorf("logical: aggregate references unknown column %q", a.Col)
			}
		}
		return n.Columns(), err
	case *Sort:
		in, err := validate(n.Input, e)
		if !slices.Contains(in, n.Key) {
			return nil, fmt.Errorf("logical: sort references unknown key %q", n.Key)
		}
		return in, err
	default:
		return nil, fmt.Errorf("logical: unknown node type %T", n)
	}
}

// Inputs returns the scans under n and the key columns its joins,
// groupings and sorts name, in pre-order: what a planner numbers the
// query's columns from.
func Inputs(n Node) (scans []*Scan, keys []string) {
	scans, keys = make([]*Scan, 0, 4), make([]string, 0, 8)
	var walk func(n Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case *Scan:
			scans = append(scans, n)
		case *Filter:
			walk(n.Input)
		case *Project:
			walk(n.Input)
		case *Sort:
			keys = append(keys, n.Key)
			walk(n.Input)
		case *Join:
			keys = append(keys, n.LeftKey, n.RightKey)
			walk(n.Left)
			walk(n.Right)
		case *GroupBy:
			keys = append(keys, n.Key)
			walk(n.Input)
		}
	}
	walk(n)
	return scans, keys
}

// Estimator memoises cardinality and distinct-count estimates over logical
// trees. Estimate and ColDistinct are mutually recursive — a join's
// cardinality needs its children's distinct counts, which in turn need the
// children's cardinalities — so a plain recursive walk recomputes the same
// subtree many times over. Trees are immutable during planning, which makes
// the per-node results cacheable; one Estimator shared across an optimiser
// run (the greedy tier asks about every node it visits) turns the quadratic
// re-walks into single visits. A planned tree has a few dozen nodes at
// most, so the memo is a list searched by node identity: cheaper than
// hashing an interface, and no map to grow.
type Estimator struct {
	rows, dist []estimate
	lefts      []joinLeft // from NewEstimatorFor's validation
}

// joinLeft is the output columns of a join's left input.
type joinLeft struct {
	j    *Join
	cols []string
}

// estimate is one memoised answer: the cardinality of n, or the distinct
// count of col in n's output.
type estimate struct {
	n   Node
	col string
	v   float64
}

// NewEstimator returns an empty Estimator. Results are cached by node
// identity, so the estimator must be discarded if a tree it has seen is
// mutated or its base statistics change.
func NewEstimator() *Estimator {
	return &Estimator{rows: make([]estimate, 0, 16), dist: make([]estimate, 0, 16)}
}

// lookup returns the answer memo holds for (n, col).
func lookup(memo []estimate, n Node, col string) (float64, bool) {
	for i := range memo {
		if m := &memo[i]; m.n == n && m.col == col {
			return m.v, true
		}
	}
	return 0, false
}

// leftColumns returns the output columns of j's left input: those validation
// kept, or derived afresh for a join it did not see.
func (e *Estimator) leftColumns(j *Join) []string {
	for _, l := range e.lefts {
		if l.j == j {
			return l.cols
		}
	}
	return j.Left.Columns()
}

// Estimate returns the estimated output cardinality of a plan. Estimates use
// exact base statistics where available and textbook heuristics elsewhere
// (1/3 for non-equality filters, independence for joins).
func Estimate(n Node) float64 { return NewEstimator().Estimate(n) }

// Estimate is the memoised form of the package-level Estimate.
func (e *Estimator) Estimate(n Node) float64 {
	if v, ok := lookup(e.rows, n, ""); ok {
		return v
	}
	v := e.estimate(n)
	e.rows = append(e.rows, estimate{n: n, v: v})
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
	if v, ok := lookup(e.dist, n, col); ok {
		return v
	}
	v := e.colDistinct(n, col)
	e.dist = append(e.dist, estimate{n: n, col: col, v: v})
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
		if slices.Contains(e.leftColumns(n), col) {
			d := e.ColDistinct(n.Left, col)
			if rows := e.Estimate(n); d > rows {
				return rows
			}
			return d
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
