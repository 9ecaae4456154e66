package core

import (
	"fmt"

	"dqo/internal/cost"
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
// inputs, SPH on dense keys, hash otherwise), and prices each remaining
// candidate with a single cost-model probe. Provably-empty intermediates —
// a predicate range disjoint from a column's exact domain bounds — short-
// circuit the probing entirely. The result is a normal *Plan: EXPLAIN,
// EXPLAIN ANALYZE, compilation, and execution are unchanged.
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
		return projectPlan(c, n.Cols, c.Props.Project(n.Cols...)), nil
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

// greedyScan picks the base scan, or — when the parent wants an order an AV
// sorted projection already paid for — that variant, at identical scan cost.
func (o *optimizer) greedyScan(n *logical.Scan, want string) *Plan {
	rows := o.estimator().Estimate(n)
	p := o.baseScan(n)
	o.stats.Alternatives++
	if o.mode.Scans != nil && want != "" && !p.Props.SortedOn(want) {
		for _, v := range o.mode.Scans.ScanVariants(n.Table) {
			if o.scanPropsOf(v.Rel).set.SortedOn(want) {
				o.stats.Alternatives++
				return o.scanPlan(n, v.Rel, v.Label, props.NoCompression, p.Cost)
			}
		}
	}
	// Compressed-scan twin: one strict-< probe, so models that cannot see
	// storage format (Paper) keep the plain scan on the tie.
	if enc := relCompression(n.Rel); enc != props.NoCompression {
		o.stats.Alternatives++
		if cc := o.mode.Model.ScanCompressed(rows, enc); cc < p.Cost {
			return o.scanPlan(n, n.Rel, "", enc, cc)
		}
	}
	return p
}

// greedyBase plans the bare scan beneath an AV-backed filter or join: no
// parent wants an order of it.
func (o *optimizer) greedyBase(n *logical.Scan) *Plan { return o.greedyScan(n, "") }

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

func (o *optimizer) greedyFilter(n *logical.Filter, want string) (*Plan, error) {
	c, err := o.greedy(n.Input, want)
	if err != nil {
		return nil, err
	}
	rows := o.estimator().Estimate(n)
	if provablyEmpty(c.Props, n.Pred) {
		rows = 0
	}
	filter := o.mode.Model.Filter(c.Rows)
	p := filterPlan(n, c, 0, rows, c.Cost+filter)
	o.stats.Alternatives++
	if rows == 0 {
		return p, nil
	}
	// Cracked-index AV over a bare base scan: the adaptive index answers the
	// range directly — selectivity made visible without statistics. Skipped
	// when the parent wants an order the current child provides (the crack
	// emits in piece order).
	if want == "" || !c.Props.SortedOn(want) {
		if cp := o.crackedFilter(n, rows, o.greedyBase); cp != nil && cp.Cost < p.Cost {
			return cp, nil
		}
	}
	// Direct-on-compressed filter over a bare base scan: one strict-< probe
	// priced from the exact zone-map census. Output order matches the decoded
	// filter, so no want-order guard is needed.
	if ep := o.encFilter(n, rows, func(scan *logical.Scan, _ props.Compression) *Plan { return o.greedyBase(scan) }); ep != nil && ep.Cost < p.Cost {
		return ep, nil
	}
	// Parallel pipe over a streaming segment: one extra probe.
	if dop := o.mode.dop(); dop > 1 && isStreamSegment(c) {
		o.stats.Alternatives++
		if par := c.Cost + o.mode.Model.Parallel(filter, dop); par < p.Cost {
			return filterPlan(n, c, dop, rows, par), nil
		}
	}
	return p, nil
}

func (o *optimizer) greedySort(n *logical.Sort) (*Plan, error) {
	c, err := o.greedy(n.Input, n.Key)
	if err != nil {
		return nil, err
	}
	if c.Props.SortedOn(n.Key) {
		o.stats.Alternatives++
		return sortPlan(c, n.Key, sortx.Radix, 0, false, c.Props, c.Cost), nil
	}
	// One probe per sort algorithm, cheapest wins; provably-empty inputs
	// skip the sweep — any algorithm sorts nothing equally well.
	kinds := o.sortKinds()
	best := kinds[0]
	bestCost := o.mode.Model.SortBy(c.Rows, best)
	o.stats.Alternatives++
	if c.Rows > 0 {
		for _, sk := range kinds[1:] {
			o.stats.Alternatives++
			if sc := o.mode.Model.SortBy(c.Rows, sk); sc < bestCost {
				best, bestCost = sk, sc
			}
		}
	}
	dop := 0
	if d := o.mode.dop(); d > 1 && c.Rows > 0 {
		o.stats.Alternatives++
		if pc := o.mode.Model.Parallel(o.mode.Model.SortBy(c.Rows, best), d); pc < bestCost {
			dop, bestCost = d, pc
		}
	}
	return sortPlan(c, n.Key, best, dop, false, c.Props.AfterSortBy(n.Key), c.Cost+bestCost), nil
}

// joinSide returns the logical input playing the build role.
func joinSide(n *logical.Join, swapped bool) logical.Node {
	if swapped {
		return n.Right
	}
	return n.Left
}

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
	buildDistinct := o.estimator().ColDistinct(joinSide(n, swapped), buildKey)
	if !kind.Admits(build.Props, probe.Props, buildKey, probeKey) {
		// The heuristic's requirements are derived from the same properties
		// it inspects, so this is defensive: fall back to the hash join,
		// which requires nothing.
		kind = physical.HJ
	}
	ch := physio.JoinChoice{Kind: kind}
	o.stats.Alternatives++
	chCost := o.mode.Model.Join(ch, build.Rows, probe.Rows, buildDistinct)
	// Parallel twin: one extra probe for the DOP-invariant kernels.
	if dop := o.mode.dop(); dop > 1 && rows > 0 && kind != physical.OJ {
		par := physio.JoinChoice{Kind: kind, Opt: physical.JoinOptions{Parallel: dop}}
		o.stats.Alternatives++
		if pc := o.mode.Model.Join(par, build.Rows, probe.Rows, buildDistinct); pc < chCost {
			ch, chCost = par, pc
		}
	}
	p := o.greedyJoinPlan(n.LeftKey, n.RightKey, lp, rp, ch, swapped, rows, buildDistinct, lp.Cost+rp.Cost+chCost)

	// AV-backed join: a prebuilt index on either base scan's join key
	// prepaid the build phase — one probe each decides whether the
	// probe-only cost beats the greedy pick.
	o.indexedJoins(n, rows, []*Plan{lp}, []*Plan{rp}, o.greedyBase, func(ap *Plan) {
		if ap.Cost < p.Cost {
			p = ap
		}
	})
	return o.greedyDegrade(p), nil
}

// greedyJoinPlan assembles the join node for the chosen granule.
func (o *optimizer) greedyJoinPlan(leftKey, rightKey string, lp, rp *Plan, ch physio.JoinChoice, swapped bool, rows, buildDistinct, total float64) *Plan {
	build, probe, buildKey, probeKey := lp, rp, leftKey, rightKey
	if swapped {
		build, probe, buildKey, probeKey = rp, lp, rightKey, leftKey
	}
	out := o.joinOutProps(ch.Kind, build.Props, probe.Props, buildKey, probeKey)
	mem := joinMem(lp, rp, rows, cost.MemJoin(ch, build.Rows, probe.Rows, buildDistinct, rows))
	return joinPlan(lp, rp, leftKey, rightKey, ch, swapped, out, rows, total, mem)
}

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

	// Partial-AV hook: a pinned algorithm family restricts the candidates;
	// with the set already bounded, probe each satisfied choice once.
	if o.mode.GroupFilter != nil {
		choices := physio.GroupChoices(n.Key, o.mode.Depth, o.mode.dop())
		if filtered := o.mode.GroupFilter(n.Key, choices); len(filtered) > 0 {
			ch, picked := o.cheapestGroup(filtered, c, n.Key, groups)
			if !picked {
				// No pinned choice is satisfiable on the raw input: enforce
				// order (sorting satisfies grouped-ness) and retry.
				o.stats.Alternatives++
				c = sortPlan(c, n.Key, sortx.Radix, 0, true, c.Props.AfterSortBy(n.Key), c.Cost+o.mode.Model.SortBy(c.Rows, sortx.Radix))
				ch, picked = o.cheapestGroup(filtered, c, n.Key, groups)
			}
			if picked {
				return o.greedyDegrade(o.greedyGroupPlan(c, n.Key, n.Aggs, ch, rows, groups)), nil
			}
		}
	}

	if !kind.Admits(c.Props, n.Key) {
		kind = physical.HG
	}
	ch := physio.GroupChoice{Kind: kind}
	o.stats.Alternatives++
	chCost := o.mode.Model.Group(ch, c.Rows, groups)
	if dop := o.mode.dop(); dop > 1 && rows > 0 && kind != physical.OG {
		par := physio.GroupChoice{Kind: kind, Opt: physical.GroupOptions{Parallel: dop}}
		o.stats.Alternatives++
		if o.mode.Model.Group(par, c.Rows, groups) < chCost {
			ch = par
		}
	}
	return o.greedyDegrade(o.greedyGroupPlan(c, n.Key, n.Aggs, ch, rows, groups)), nil
}

// cheapestGroup probes each choice the input c admits once and returns the
// cheapest, the first on a tie.
func (o *optimizer) cheapestGroup(choices []physio.GroupChoice, c *Plan, key string, groups float64) (best physio.GroupChoice, picked bool) {
	var bestCost float64
	for _, ch := range choices {
		if !ch.Kind.Admits(c.Props, key) {
			continue
		}
		o.stats.Alternatives++
		if chCost := o.mode.Model.Group(ch, c.Rows, groups); !picked || chCost < bestCost {
			best, bestCost, picked = ch, chCost, true
		}
	}
	return best, picked
}

// greedyGroupPlan assembles the grouping node for the chosen granule.
func (o *optimizer) greedyGroupPlan(c *Plan, key string, aggs []expr.AggSpec, ch physio.GroupChoice, rows, groups float64) *Plan {
	out := o.restrict(ch.Kind.OutputProps(c.Props, key))
	mem := groupMem(c, rows, groupWidth(aggs), cost.MemGroup(ch, c.Rows, groups))
	return groupPlan(c, key, aggs, ch, out, rows, c.Cost+o.mode.Model.Group(ch, c.Rows, groups), mem)
}

// greedyDegrade applies the memory budget to a greedy join/group pick: a
// hash-based choice whose estimated footprint exceeds the budget degrades to
// its sort-based sibling when that fits — mirroring what budgeted DP
// enumeration converges to; the runtime govern.Budget remains the backstop.
func (o *optimizer) greedyDegrade(p *Plan) *Plan {
	if o.mode.MemBudget <= 0 || p.Mem <= float64(o.mode.MemBudget) {
		return p
	}
	var alt *Plan
	distinct := float64(p.KeyDom.Distinct)
	switch {
	case p.Op == OpGroup && (p.Group.Kind == physical.HG || p.Group.Kind == physical.SPHG):
		if distinct <= 0 {
			distinct = p.Rows
		}
		o.stats.Alternatives++
		sog := physio.GroupChoice{Kind: physical.SOG, Opt: physical.GroupOptions{Sort: sortx.Radix}}
		alt = o.greedyGroupPlan(p.Children[0], p.GroupKey, p.Aggs, sog, p.Rows, distinct)
	case p.Op == OpJoin && p.Join.Kind == physical.HJ && p.Index == nil:
		lp, rp := p.Children[0], p.Children[1]
		build, probe := lp, rp
		if p.Swapped {
			build, probe = rp, lp
		}
		if distinct <= 0 {
			distinct = build.Rows
		}
		o.stats.Alternatives++
		soj := physio.JoinChoice{Kind: physical.SOJ, Opt: physical.JoinOptions{Sort: sortx.Radix}}
		total := lp.Cost + rp.Cost + o.mode.Model.Join(soj, build.Rows, probe.Rows, distinct)
		alt = o.greedyJoinPlan(p.LeftKey, p.RightKey, lp, rp, soj, p.Swapped, p.Rows, distinct, total)
	default:
		return p
	}
	if alt.Mem <= float64(o.mode.MemBudget) || alt.Mem < p.Mem {
		return alt
	}
	return p
}
