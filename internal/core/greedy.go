package core

import (
	"fmt"
	"slices"

	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/props"
	"dqo/internal/sortx"
)

// greedy is the fast planning tier: one pass over the logical tree instead
// of dynamic programming. At each site it selects build/probe roles by
// visible selectivity (whichever input the literal predicates, cracked-index
// ranges, and estimated cardinalities make smaller builds), picks the
// granule the input properties already pay for (order-based on sorted
// inputs, SPH on dense keys, hash otherwise), and prices what the site's
// enumerator yields for that narrowed input — the one child plan, the picked
// kind and its parallel twin — keeping the cheapest that fits the memory
// budget (site.take, site.offerBreaker).
// Provably-empty intermediates — a predicate range disjoint from a column's
// exact domain bounds — end the probing at the first alternative. The result
// is a normal *Plan: EXPLAIN, EXPLAIN ANALYZE, compilation, and execution are
// unchanged.
//
// want names a column the parent would like sorted (a join key, grouping
// key, or ORDER BY key); scans use it to pick a sorted AV projection and
// filters to avoid destroying an order the parent needs.
func (o *optimizer) greedy(n logical.Node, want string) (*Plan, error) {
	// Optimize validated the tree once at entry; the recursion must not —
	// per-node revalidation would make the single greedy pass quadratic.
	switch n := n.(type) {
	case *logical.Scan:
		return o.greedyScan(n, want), nil
	case *logical.Filter:
		return o.greedyFilter(n, want)
	case *logical.Project:
		c, err := o.greedy(n.Input, want)
		if err != nil {
			return nil, err
		}
		o.stats.Alternatives++
		p := new(Plan)
		projectPlan(p, c, n.Cols, c.Props.Project(n.Cols...))
		return p, nil
	case *logical.Sort:
		return o.greedySort(n)
	case *logical.Join:
		return o.greedyJoin(n)
	case *logical.GroupBy:
		return o.greedyGroup(n)
	default:
		return nil, fmt.Errorf("core: cannot optimise %T", n)
	}
}

// greedySite returns the greedy tier's consumer of one site's enumeration.
func (o *optimizer) greedySite(want string) site {
	return site{o: o, greedy: true, pick: pick{want: want}}
}

// greedyScan picks the base scan, or — when the parent wants an order an AV
// sorted projection already paid for — that variant, at identical scan cost,
// or the compressed-scan twin when strictly cheaper (models that cannot see
// storage format, Paper, keep the plain scan on the tie).
func (o *optimizer) greedyScan(n *logical.Scan, want string) *Plan {
	t := o.greedySite(want)
	o.enumScan(&t, n)
	return t.pick.best
}

// provablyEmpty reports whether pred provably selects nothing from an input
// with the given properties: its single-column key range is disjoint from
// the column's exact domain bounds. This is the visible-selectivity early
// exit — no statistics beyond what the property vector already carries.
func provablyEmpty(in props.Set, pred expr.Expr) bool {
	col, lo, hi, ok := predRange(pred)
	if !ok {
		return false
	}
	d := in.Domain(col)
	if !d.Known {
		return false
	}
	return lo > d.Hi || hi <= d.Lo
}

// greedyFilter takes the serial filter unless a cracked-index,
// direct-on-compressed or parallel alternative beats it, the first of them to
// do so in that order: selectivity made visible without statistics.
func (o *optimizer) greedyFilter(n *logical.Filter, want string) (*Plan, error) {
	c, err := o.greedy(n.Input, want)
	if err != nil {
		return nil, err
	}
	rows := o.estimator().Estimate(n)
	t := o.greedySite(want)
	if provablyEmpty(c.Props, n.Pred) {
		rows, t.pick.empty = 0, true
	}
	cs := []*Plan{c}
	o.enumFilter(&t, n, cs, rows, serialTwins)
	o.enumFilter(&t, n, cs, rows, parallelTwins)
	return t.pick.best, nil
}

// greedySort sweeps the sort kinds serially, cheapest wins, then prices the
// winner's parallel twin when a serial sort fits the budget; a provably empty
// input skips the sweep — any algorithm sorts nothing equally well.
func (o *optimizer) greedySort(n *logical.Sort) (*Plan, error) {
	c, err := o.greedy(n.Input, n.Key)
	if err != nil {
		return nil, err
	}
	t := o.greedySite("")
	t.pick.empty = c.Rows == 0
	o.enumSort(&t, c, n.Key, false, o.sortKinds(), serialTwins)
	if t.pick.best != nil {
		o.enumSort(&t, c, n.Key, false, []sortx.Kind{t.pick.best.SortKind}, parallelTwins)
	}
	return t.picked(), nil
}

// greedyJoin picks the roles and the kind the inputs' properties pay for and
// prices that kind, its parallel twin and the AV-backed joins.
func (o *optimizer) greedyJoin(n *logical.Join) (*Plan, error) {
	lp, err := o.greedy(n.Left, n.LeftKey)
	if err != nil {
		return nil, err
	}
	rp, err := o.greedy(n.Right, n.RightKey)
	if err != nil {
		return nil, err
	}
	rows := o.estimator().Estimate(n)
	if lp.Rows == 0 || rp.Rows == 0 {
		rows = 0
	}

	// Role ordering by visible selectivity: the side the predicates (and
	// cracked ranges, via the cardinality they imply) make smaller builds;
	// the larger side streams through as the probe.
	swapped := rp.Rows < lp.Rows
	build, probe := lp, rp
	buildKey, probeKey := n.LeftKey, n.RightKey
	if swapped {
		build, probe = rp, lp
		buildKey, probeKey = n.RightKey, n.LeftKey
	}

	// Granule selection from the properties already paid for: sorted inputs
	// stream through the order-based join, a dense build key admits the
	// static-perfect-hash directory, anything else hashes.
	kind := physical.HJ
	switch {
	case lp.Props.SortedOn(n.LeftKey) && rp.Props.SortedOn(n.RightKey):
		kind, swapped = physical.OJ, false
		build, probe = lp, rp
		buildKey, probeKey = n.LeftKey, n.RightKey
	case build.Props.DenseOn(buildKey):
		kind = physical.SPHJ
	}
	if !kind.Admits(build.Props, probe.Props, buildKey, probeKey) {
		// The heuristic's requirements are derived from the same properties
		// it inspects, so this is defensive: fall back to the hash join,
		// which requires nothing.
		kind = physical.HJ
	}
	// The kind at its default molecules, and its parallel twin unless
	// nothing reaches the join.
	var buf [2]physio.JoinChoice
	choices := buf[:0]
	for _, ch := range o.joinChoices() {
		if ch.Kind == kind && ch.Opt == (physical.JoinOptions{Parallel: ch.Opt.Parallel}) && (ch.Opt.Parallel <= 1 || rows > 0) {
			choices = append(choices, ch)
		}
	}
	in := joinIn{n: n, lefts: []*Plan{lp}, rights: []*Plan{rp}, swaps: []bool{swapped}, choices: choices, rows: rows, indexed: true}
	if swapped {
		in.distinct[1] = o.estimator().ColDistinct(n.Right, n.RightKey)
	} else {
		in.distinct[0] = o.estimator().ColDistinct(n.Left, n.LeftKey)
	}
	t := o.greedySite("")
	o.enumJoin(&t, &in)
	if t.pruned {
		in.choices, in.indexed = unoffered(choices, joinSiblings[:]), false
		o.enumJoin(&t, &in)
	}
	return t.picked(), nil
}

// greedyGroup picks the kind the input's properties pay for (order-based on
// grouped input, SPH on a dense key, hash otherwise) and prices it and its
// parallel twin.
func (o *optimizer) greedyGroup(n *logical.GroupBy) (*Plan, error) {
	c, err := o.greedy(n.Input, n.Key)
	if err != nil {
		return nil, err
	}
	groups := o.estimator().ColDistinct(n.Input, n.Key)
	rows := o.estimator().Estimate(n)
	if c.Rows == 0 {
		rows = 0
	}

	kind := physical.HG
	switch {
	case c.Props.GroupedOn(n.Key):
		kind = physical.OG
	case c.Props.DenseOn(n.Key):
		kind = physical.SPHG
	}
	if !kind.Admits(c.Props, n.Key) {
		kind = physical.HG
	}
	var buf [2]physio.GroupChoice
	choices := buf[:0]
	for _, ch := range o.groupChoices() {
		if ch.Kind == kind && ch.Opt == (physical.GroupOptions{Parallel: ch.Opt.Parallel}) && (ch.Opt.Parallel <= 1 || rows > 0) {
			choices = append(choices, ch)
		}
	}
	t := o.greedySite("")
	o.enumGroup(&t, n.Key, n.Aggs, []*Plan{c}, choices, rows, groups)
	if t.pruned {
		o.enumGroup(&t, n.Key, n.Aggs, []*Plan{c}, unoffered(choices, groupSiblings[:]), rows, groups)
	}
	return t.picked(), nil
}

// The siblings a greedy join or grouping site also offers once the budget
// has pruned one of its candidates, because a DP site could fall back to
// them: the radix sort-based kind, which needs the least memory, and the
// serial hash kind, which has a disk-backed twin.
var (
	joinSiblings  = [...]physio.JoinChoice{{Kind: physical.SOJ, Opt: physical.JoinOptions{Sort: sortx.Radix}}, {Kind: physical.HJ}}
	groupSiblings = [...]physio.GroupChoice{{Kind: physical.SOG, Opt: physical.GroupOptions{Sort: sortx.Radix}}, {Kind: physical.HG}}
)

// unoffered returns those of want that are not among offered.
func unoffered[C comparable](offered, want []C) []C {
	var out []C
	for _, w := range want {
		if !slices.Contains(offered, w) {
			out = append(out, w)
		}
	}
	return out
}
