package core

import (
	"fmt"
	"math"
	"slices"

	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/props"
	"dqo/internal/sortx"
)

// greedy is the fast planning tier: one pass over the logical tree instead
// of dynamic programming, returning a table of one. At each site it orders
// build/probe roles by estimated cardinality, picks the granule the input
// properties already pay for (order-based on sorted inputs, SPH on dense
// keys, hash otherwise), and prices what the site's enumerator yields for
// that narrowed input, keeping the cheapest that fits the memory budget
// (site.take). A provably empty input ends a site at its first alternative.
//
// want holds a column the parent would like sorted (a join, grouping or
// ORDER BY key): scans pick a sorted AV projection for it, filters keep it.
func (o *optimizer) greedy(n logical.Node, want props.Cols) ([]slot, error) {
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
		return o.keep(projectSlot(n, &c[0], keyed(c[0].props.Project(o.colsOf(n.Cols))))), nil
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
func (o *optimizer) greedySite(want props.Cols) site {
	return site{o: o, greedy: true, pick: pick{want: want}}
}

// greedyScan picks the base scan, an AV sorted projection that has the
// order the parent wants, or the compressed-scan twin when strictly cheaper.
func (o *optimizer) greedyScan(n *logical.Scan, want props.Cols) []slot {
	t := o.greedySite(want)
	o.enumScan(&t, n)
	return t.picked()
}

// provablyEmpty reports whether pred provably selects nothing from an input
// with the given properties: its key range, in the key space of the column's
// kind (storage.Kind.KeyRange), is disjoint from the column's exact domain.
func (o *optimizer) provablyEmpty(pred expr.Expr, in props.Set) bool {
	name, lo, hi, ok := predRange(pred)
	c, numbered := o.tab.Col(name)
	if d := in.Domain(c); ok && numbered && d.Known {
		lo, hi, ok = o.tab.Column(c).Kind.KeyRange(lo, hi)
		return ok && (lo > d.Hi || hi <= d.Lo && hi != math.MaxUint64)
	}
	return false
}

// greedyFilter takes the serial filter unless a cracked-index,
// direct-on-compressed or parallel alternative beats it, the first of them to
// do so in that order: selectivity made visible without statistics.
func (o *optimizer) greedyFilter(n *logical.Filter, want props.Cols) ([]slot, error) {
	cs, err := o.greedy(n.Input, want)
	if err != nil {
		return nil, err
	}
	rows := o.est.Estimate(n)
	t := o.greedySite(want)
	if o.provablyEmpty(n.Pred, cs[0].props) {
		rows, t.pick.empty = 0, true
	}
	o.enumFilter(&t, n, cs, rows, serialTwins)
	o.enumFilter(&t, n, cs, rows, parallelTwins)
	return t.picked(), nil
}

// greedySort sweeps the sort kinds serially, cheapest wins, then prices the
// winner's parallel twin when a serial sort fits the budget; a provably empty
// input skips the sweep — any algorithm sorts nothing equally well.
func (o *optimizer) greedySort(n *logical.Sort) ([]slot, error) {
	cs, err := o.greedy(n.Input, props.ColsOf(o.col(n.Key)))
	if err != nil {
		return nil, err
	}
	t := o.greedySite(0)
	t.pick.empty = cs[0].rows == 0
	o.enumSort(&t, &cs[0], o.col(n.Key), false, o.sortKinds(), serialTwins)
	if t.pick.have {
		o.enumSort(&t, &cs[0], o.col(n.Key), false, []sortx.Kind{t.pick.best.sort}, parallelTwins)
	}
	return t.picked(), nil
}

// greedyJoin picks the roles and the kind the inputs' properties pay for and
// prices that kind, its parallel twin and the AV-backed joins.
func (o *optimizer) greedyJoin(n *logical.Join) ([]slot, error) {
	ls, err := o.greedy(n.Left, props.ColsOf(o.col(n.LeftKey)))
	if err != nil {
		return nil, err
	}
	rs, err := o.greedy(n.Right, props.ColsOf(o.col(n.RightKey)))
	if err != nil {
		return nil, err
	}
	lp, rp := &ls[0], &rs[0]
	lk, rk := o.col(n.LeftKey), o.col(n.RightKey)
	rows := o.est.Estimate(n)
	if lp.rows == 0 || rp.rows == 0 {
		rows = 0
	}

	// Role ordering by visible selectivity: the side the predicates (and
	// cracked ranges, via the cardinality they imply) make smaller builds;
	// the larger side streams through as the probe.
	swapped := rp.rows < lp.rows
	build, probe, buildKey, probeKey := lp, rp, lk, rk
	if swapped {
		build, probe, buildKey, probeKey = rp, lp, rk, lk
	}

	// Granule selection from the properties already paid for: sorted inputs
	// stream through the order-based join, a dense build key admits the
	// static-perfect-hash directory, anything else hashes.
	kind := physical.HJ
	switch {
	case lp.props.SortedOn(lk) && rp.props.SortedOn(rk):
		kind, swapped = physical.OJ, false
		build, probe, buildKey, probeKey = lp, rp, lk, rk
	case build.props.DenseOn(buildKey):
		kind = physical.SPHJ
	}
	if !kind.Admits(build.props, probe.props, buildKey, probeKey) {
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
	in := joinIn{n: n, lefts: ls, rights: rs, swaps: []bool{swapped}, choices: choices, rows: rows, indexed: true}
	if swapped {
		in.distinct[1] = o.est.ColDistinct(n.Right, n.RightKey)
	} else {
		in.distinct[0] = o.est.ColDistinct(n.Left, n.LeftKey)
	}
	t := o.greedySite(0)
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
func (o *optimizer) greedyGroup(n *logical.GroupBy) ([]slot, error) {
	cs, err := o.greedy(n.Input, props.ColsOf(o.col(n.Key)))
	if err != nil {
		return nil, err
	}
	c, key := &cs[0], o.col(n.Key)
	groups := o.est.ColDistinct(n.Input, n.Key)
	rows := o.est.Estimate(n)
	if c.rows == 0 {
		rows = 0
	}

	kind := physical.HG
	switch {
	case c.props.GroupedOn(key):
		kind = physical.OG
	case c.props.DenseOn(key):
		kind = physical.SPHG
	}
	if !kind.Admits(c.props, key) {
		kind = physical.HG
	}
	var buf [2]physio.GroupChoice
	choices := buf[:0]
	for _, ch := range o.groupChoices() {
		if ch.Kind == kind && ch.Opt == (physical.GroupOptions{Parallel: ch.Opt.Parallel}) && (ch.Opt.Parallel <= 1 || rows > 0) {
			choices = append(choices, ch)
		}
	}
	t := o.greedySite(0)
	o.enumGroup(&t, n, cs, choices, rows, groups)
	if t.pruned {
		o.enumGroup(&t, n, cs, unoffered(choices, groupSiblings[:]), rows, groups)
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
