package logical

import (
	"slices"

	"dqo/internal/expr"
)

// PushFilters returns n with every Filter that sits directly on a join tree
// moved as close to the base relations as its columns allow — the rewrite a
// Selinger-style optimiser applies before it enumerates joins. Such a Filter
// is split at AND, and each conjunct goes directly above the lowest node whose
// output holds every column it names: a conjunct over one table lands on that
// table's Scan, one over several tables above the lowest join that holds them
// all. Conjuncts arriving at one node are ANDed there in statement order. An
// OR moves as one conjunct, a conjunct naming no column stays where it was,
// and a Filter over anything but a join — a WHERE over a single table, a
// HAVING over its grouping — is left in place. Nodes on no moved path are
// shared with n, which is left untouched.
//
// Placement depends only on which columns each conjunct names, never on a
// literal, so two statements sharing a fingerprint come out with positionally
// aligned filters (FilterPreds) — what plan-template rebinding relies on.
func PushFilters(n Node) Node {
	switch n := n.(type) {
	case *Filter:
		if j, ok := n.Input.(*Join); ok {
			return place(j, appendConjuncts(nil, n.Pred))
		}
		if in := PushFilters(n.Input); in != n.Input {
			return &Filter{Input: in, Pred: n.Pred}
		}
	case *Project:
		if in := PushFilters(n.Input); in != n.Input {
			cp := *n
			cp.Input = in
			return &cp
		}
	case *GroupBy:
		if in := PushFilters(n.Input); in != n.Input {
			cp := *n
			cp.Input = in
			return &cp
		}
	case *Sort:
		if in := PushFilters(n.Input); in != n.Input {
			cp := *n
			cp.Input = in
			return &cp
		}
	}
	return n
}

// place returns n with conjs, each of whose columns n's output holds, applied
// at the lowest nodes of n that hold them.
func place(n Node, conjs []expr.Expr) Node {
	if len(conjs) == 0 {
		return n
	}
	j, ok := n.(*Join)
	if !ok {
		return &Filter{Input: n, Pred: and(conjs)}
	}
	lcols, rcols := j.Left.Columns(), j.Right.Columns()
	var left, right, here []expr.Expr
	for _, c := range conjs {
		switch cols := c.Columns(nil); {
		case len(cols) == 0:
			here = append(here, c)
		case holds(lcols, cols):
			left = append(left, c)
		case holds(rcols, cols):
			right = append(right, c)
		default:
			here = append(here, c)
		}
	}
	var out Node = &Join{Left: place(j.Left, left), Right: place(j.Right, right), LeftKey: j.LeftKey, RightKey: j.RightKey}
	if len(here) > 0 {
		out = &Filter{Input: out, Pred: and(here)}
	}
	return out
}

// appendConjuncts appends the operands of e's top-level ANDs, left to right.
func appendConjuncts(out []expr.Expr, e expr.Expr) []expr.Expr {
	if b, ok := e.(expr.Bin); ok && b.Op == expr.OpAnd {
		return appendConjuncts(appendConjuncts(out, b.L), b.R)
	}
	return append(out, e)
}

// and folds conjs left to right, the way the parser associates AND.
func and(conjs []expr.Expr) expr.Expr {
	out := conjs[0]
	for _, c := range conjs[1:] {
		out = expr.Bin{Op: expr.OpAnd, L: out, R: c}
	}
	return out
}

// holds reports whether every name in need is one of cols.
func holds(cols, need []string) bool {
	for _, c := range need {
		if !slices.Contains(cols, c) {
			return false
		}
	}
	return true
}
