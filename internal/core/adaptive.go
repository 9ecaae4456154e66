package core

import (
	"fmt"

	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/storage"
)

// This file implements the research-agenda item "Runtime-Adaptivity and
// Reoptimisation of AVs" (paper Section 6) in its simplest useful form: an
// executor that re-validates the optimiser's property assumptions against
// the *actual* intermediate results and re-decides the grouping algorithm
// when they diverge. A plan whose grouping decision is deferred this way is
// a partial Algorithmic View with the final unnest delegated to run time.

// AdaptiveReport records what the adaptive executor did.
type AdaptiveReport struct {
	// Switches lists grouping decisions changed at run time, as
	// "planned -> executed (reason)".
	Switches []string
	// Checks counts the property validations performed.
	Checks int
}

// ExecuteAdaptive runs the plan like Execute, but before every grouping
// operator it compares the planned key domain and input order against the
// materialised input's actual statistics. If the plan's assumption broke
// (e.g. a filter upstream made the domain sparse, or an assumed-grouped
// input is not grouped), or if the actual properties admit a cheaper
// algorithm under the mode's cost model, the grouping choice is re-decided
// on the spot.
func ExecuteAdaptive(p *Plan, mode Mode) (*storage.Relation, *AdaptiveReport, error) {
	if mode.Model == nil {
		return nil, nil, fmt.Errorf("core: adaptive execution needs a cost model")
	}
	rep := &AdaptiveReport{}
	rel, err := executeAdaptive(p, mode, rep)
	return rel, rep, err
}

func executeAdaptive(p *Plan, mode Mode, rep *AdaptiveReport) (*storage.Relation, error) {
	if p.Op != OpGroup {
		// Recurse through children with adaptivity, then run this operator
		// as planned.
		switch p.Op {
		case OpScan:
			return p.Rel, nil
		case OpJoin:
			left, err := executeAdaptive(p.Children[0], mode, rep)
			if err != nil {
				return nil, err
			}
			right, err := executeAdaptive(p.Children[1], mode, rep)
			if err != nil {
				return nil, err
			}
			return p.runJoin(nil, left, right, p.Join.Opt, nil)
		default:
			in, err := executeAdaptive(p.Children[0], mode, rep)
			if err != nil {
				return nil, err
			}
			switch p.Op {
			case OpFilter:
				if p.Crack != nil {
					return in.Gather(p.Crack.Range64(p.CrackLo, p.CrackHi)), nil
				}
				return physical.FilterRel(in, p.Pred)
			case OpProject:
				return physical.ProjectRel(in, p.Cols...)
			case OpSort:
				return physical.SortRel(in, p.SortKey, p.SortKind)
			default:
				return nil, fmt.Errorf("core: cannot execute operator %v", p.Op)
			}
		}
	}

	in, err := executeAdaptive(p.Children[0], mode, rep)
	if err != nil {
		return nil, err
	}
	rep.Checks++

	// Actual input properties, measured on the materialised intermediate.
	keyCol, ok := in.Column(p.GroupKey)
	if !ok {
		return nil, fmt.Errorf("core: adaptive grouping: input lost column %q", p.GroupKey)
	}
	st := keyCol.Stats()
	actual := props.NewSet()
	if st.Sorted {
		actual = actual.WithSortedBy(p.GroupKey)
	}
	actual.Cols[p.GroupKey] = props.FromStats(st.Rows, st.Min, st.Max, st.Distinct, st.Dense, st.Exact)
	actualDom := actual.Domain(p.GroupKey)

	// Re-decide: cheapest applicable choice under the actual properties.
	choices := groupChoices(mode, p.GroupKey)
	rows := float64(in.NumRows())
	groups := float64(st.Distinct)
	best := -1
	bestCost := 0.0
	for i, ch := range choices {
		if !ch.Kind.Admits(actual, p.GroupKey) {
			continue
		}
		c := mode.Model.Group(ch, rows, groups)
		if best < 0 || c < bestCost {
			best = i
			bestCost = c
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("core: adaptive grouping: no applicable algorithm for %q", p.GroupKey)
	}
	chosen := choices[best]
	if chosen.Kind != p.Group.Kind {
		rep.Switches = append(rep.Switches, fmt.Sprintf("%s -> %s (actual input: %s)",
			p.Group.Label(), chosen.Label(), st))
	}
	return physical.GroupByRelDom(in, p.GroupKey, p.Aggs, chosen.Kind, chosen.Opt, actualDom)
}

// ReplanIfStale compares a cached plan's base-table row counts against the
// current catalog and reports whether the plan should be re-optimised — the
// invalidation hook for plan-level Algorithmic Views.
func ReplanIfStale(p *Plan, tables map[string]*storage.Relation) bool {
	stale := false
	var rec func(n *Plan)
	rec = func(n *Plan) {
		if n.Op == OpScan && n.AV == "" {
			if cur, ok := tables[n.Table]; ok && cur != n.Rel {
				stale = true
			}
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(p)
	return stale
}
