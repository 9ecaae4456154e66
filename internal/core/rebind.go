package core

import (
	"fmt"

	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/storage"
)

// Rebind instantiates a cached plan template for a new logical tree of the
// same fingerprint: the physical plan structure (granule choices, join
// roles, enforcers, AV access paths) is reused verbatim and only the
// literal-bearing payloads are replaced — each Filter node receives the
// predicate from the new tree, and cracked-index filters recompute their
// probe range from the new bounds. No enumeration runs: the returned
// Result's Stats.Alternatives is zero.
//
// The template is never written: Rebind copies the Filter nodes and the
// nodes on the way from the root to each of them, and shares every other
// subtree with the template (and so with every other execution of it). A
// plan without filters is returned as it is.
//
// Rebind fails when the new tree cannot be spliced into the template —
// a different Filter count, or a predicate a cracked filter cannot turn
// into a key range (e.g. a literal outside the uint32 key domain). Callers
// treat failure as a cache miss and re-plan.
func Rebind(cached *Result, n logical.Node) (*Result, error) {
	preds := logical.FilterPreds(n)
	next := 0
	best, err := rebindNode(cached.Best, preds, &next)
	if err == nil && next != len(preds) {
		err = fmt.Errorf("core: rebind: template has %d filters, query has %d", next, len(preds))
	}
	if err != nil {
		return nil, err
	}
	return &Result{Best: best, Mode: cached.Mode, Stats: Stats{Kept: cached.Stats.Kept}}, nil
}

// rebindNode returns p with the filters of its subtree, taken in pre-order,
// carrying preds[*next:]: p itself when the subtree has no filter, a copy
// otherwise.
func rebindNode(p *Plan, preds []expr.Expr, next *int) (*Plan, error) {
	out := p
	if p.Op == OpFilter {
		if *next == len(preds) {
			return nil, fmt.Errorf("core: rebind: template has more than the query's %d filters", len(preds))
		}
		cp := *p
		if err := cp.rebindFilter(preds[*next]); err != nil {
			return nil, err
		}
		*next++
		out = &cp
	}
	for i, c := range p.Children {
		nc, err := rebindNode(c, preds, next)
		if err != nil {
			return nil, err
		}
		if nc == c {
			continue
		}
		if out == p {
			cp := *p
			out = &cp
		}
		if &out.Children[0] == &p.Children[0] {
			out.Children = append([]*Plan(nil), p.Children...)
		}
		out.Children[i] = nc
	}
	return out, nil
}

// rebindFilter replaces the filter's predicate and what was derived from
// its literals.
func (p *Plan) rebindFilter(pred expr.Expr) error {
	if p.Crack != nil {
		oldCol, _, _, _ := predRange(p.Pred)
		col, lo, hi, ok := predRange(pred)
		if !ok || col != oldCol {
			return fmt.Errorf("core: rebind: predicate %s is not a %s key range", pred, oldCol)
		}
		p.CrackLo, p.CrackHi = lo, hi
	}
	if p.Enc != storage.EncNone {
		// A compressed filter's encoded bounds derive from the literals;
		// recompute them (and the zone-map census EXPLAIN shows) for the
		// new predicate, or fail into a re-plan.
		oldCol, _, _, _ := predRange(p.Pred)
		col, lo, hi, ok := predRange(pred)
		if !ok || col != oldCol {
			return fmt.Errorf("core: rebind: predicate %s is not a %s key range", pred, oldCol)
		}
		plo, phi, okb := encBounds(lo, hi)
		if !okb {
			return fmt.Errorf("core: rebind: predicate %s leaves the encoded %s domain", pred, col)
		}
		p.EncLo, p.EncHi = plo, phi
		if child := p.Children[0]; child.Op == OpScan {
			if _, skipped, total, _, oke := encFilterTarget(child.Rel, col, plo, phi); oke {
				p.SegsSkipped, p.SegsTotal = skipped, total
			}
		}
	}
	p.Pred = pred
	return nil
}
