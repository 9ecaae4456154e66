package core

import (
	"fmt"
	"math"

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
		dop := 0
		if c.Op == OpFilter || c.Op == OpProject {
			dop = c.DOP
		}
		p := &Plan{
			Op: OpProject, Children: []*Plan{c}, Cols: n.Cols, DOP: dop,
			Props: c.Props.Project(n.Cols...),
			Rows:  c.Rows,
			Cost:  c.Cost,
		}
		setFootprint(p)
		o.stats.Alternatives++
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

// greedyScan picks the base scan, or — when the parent wants an order an AV
// sorted projection already paid for — that variant, at identical scan cost.
func (o *optimizer) greedyScan(n *logical.Scan, want string) *Plan {
	rows := o.estimator().Estimate(n)
	p := &Plan{
		Op: OpScan, Table: n.Table, Rel: n.Rel,
		Props: o.scanPropsOf(n.Rel),
		Rows:  rows,
		Cost:  o.mode.Model.Scan(rows),
	}
	setFootprint(p)
	o.stats.Alternatives++
	if o.mode.Scans != nil && want != "" && !p.Props.SortedOn(want) {
		for _, v := range o.mode.Scans.ScanVariants(n.Table) {
			vprops := o.scanPropsOf(v.Rel)
			if !vprops.SortedOn(want) {
				continue
			}
			vp := &Plan{
				Op: OpScan, Table: n.Table, Rel: v.Rel, AV: v.Label,
				Props: vprops,
				Rows:  rows,
				Cost:  o.mode.Model.Scan(rows),
			}
			setFootprint(vp)
			o.stats.Alternatives++
			return vp
		}
	}
	// Compressed-scan twin: one strict-< probe, so models that cannot see
	// storage format (Paper) keep the plain scan on the tie.
	if enc := relCompression(n.Rel); enc != props.NoCompression {
		o.stats.Alternatives++
		if cc := o.mode.Model.ScanCompressed(rows, enc); cc < p.Cost {
			cp := &Plan{
				Op: OpScan, Table: n.Table, Rel: n.Rel, Enc: enc,
				Props: p.Props, Rows: rows, Cost: cc,
			}
			setFootprint(cp)
			return cp
		}
	}
	return p
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

func (o *optimizer) greedyFilter(n *logical.Filter, want string) (*Plan, error) {
	c, err := o.greedy(n.Input, want)
	if err != nil {
		return nil, err
	}
	rows := o.estimator().Estimate(n)
	if provablyEmpty(c.Props, n.Pred) {
		rows = 0
	}
	p := &Plan{
		Op: OpFilter, Children: []*Plan{c}, Pred: n.Pred,
		Props: c.Props,
		Rows:  rows,
		Cost:  c.Cost + o.mode.Model.Filter(c.Rows),
	}
	setFootprint(p)
	o.stats.Alternatives++
	// Cracked-index AV over a bare base scan: the adaptive index answers the
	// range directly, touching only qualifying pieces — selectivity made
	// visible without statistics. Skipped when the parent wants an order the
	// current child provides (the crack emits in piece order).
	if o.mode.CrackedIdx != nil && rows > 0 {
		if scan, isScan := n.Input.(*logical.Scan); isScan {
			if col, lo, hi, ok := predRange(n.Pred); ok {
				if idx, have := o.mode.CrackedIdx.Cracked(scan.Table, col); have {
					if want == "" || !c.Props.SortedOn(want) {
						base := o.greedyScan(scan, "")
						o.stats.Alternatives++
						cp := &Plan{
							Op: OpFilter, Children: []*Plan{base}, Pred: n.Pred,
							AV: idx.Label(), Crack: idx, CrackLo: lo, CrackHi: hi,
							Props: base.Props.DropOrder(),
							Rows:  rows,
							Cost:  base.Cost + o.mode.Model.Filter(rows),
						}
						setFootprint(cp)
						if cp.Cost < p.Cost {
							return cp, nil
						}
					}
				}
			}
		}
	}
	// Direct-on-compressed filter over a bare base scan: one strict-< probe
	// priced from the exact zone-map census (segments skipped, encoded units
	// left to compare). Output order matches the decoded filter, so no
	// want-order guard is needed.
	if rows > 0 {
		if scan, isScan := n.Input.(*logical.Scan); isScan {
			if col, lo, hi, ok := predRange(n.Pred); ok {
				if plo, phi, okb := encBounds(lo, hi); okb {
					if enc, skipped, total, work, oke := encFilterTarget(scan.Rel, col, plo, phi); oke {
						base := o.greedyScan(scan, "")
						o.stats.Alternatives++
						ep := &Plan{
							Op: OpFilter, Children: []*Plan{base}, Pred: n.Pred,
							Enc: enc, EncCol: col, EncLo: plo, EncHi: phi,
							SegsSkipped: skipped, SegsTotal: total,
							Props: base.Props,
							Rows:  rows,
							Cost:  base.Cost + o.mode.Model.FilterCompressed(base.Rows, float64(work), rows, enc),
						}
						setFootprint(ep)
						if ep.Cost < p.Cost {
							return ep, nil
						}
					}
				}
			}
		}
	}
	// Parallel pipe over a streaming segment: one extra probe.
	if dop := o.dop(); dop > 1 && rows > 0 && isStreamSegment(c) {
		o.stats.Alternatives++
		par := c.Cost + o.mode.Model.Parallel(o.mode.Model.Filter(c.Rows), dop)
		if par < p.Cost {
			pp := &Plan{
				Op: OpFilter, Children: []*Plan{c}, Pred: n.Pred, DOP: dop,
				Props: c.Props,
				Rows:  rows,
				Cost:  par,
			}
			setFootprint(pp)
			return pp, nil
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
		p := &Plan{
			Op: OpSort, Children: []*Plan{c}, SortKey: n.Key, SortKind: sortx.Radix,
			Props: c.Props, Rows: c.Rows, Cost: c.Cost,
		}
		setFootprint(p)
		o.stats.Alternatives++
		return p, nil
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
	if d := o.dop(); d > 1 && c.Rows > 0 {
		o.stats.Alternatives++
		if pc := o.mode.Model.Parallel(o.mode.Model.SortBy(c.Rows, best), d); pc < bestCost {
			dop, bestCost = d, pc
		}
	}
	p := &Plan{
		Op: OpSort, Children: []*Plan{c}, SortKey: n.Key, SortKind: best, DOP: dop,
		Props: c.Props.AfterSortBy(n.Key),
		Rows:  c.Rows,
		Cost:  c.Cost + bestCost,
	}
	setFootprint(p)
	return p, nil
}

// greedyJoinChoice builds one fully resolved join choice.
func greedyJoinChoice(kind physical.JoinKind, opt physical.JoinOptions, lcol, rcol string) physio.JoinChoice {
	l, r := kind.Requirements(lcol, rcol)
	return physio.JoinChoice{Kind: kind, Opt: opt, LeftReqs: l, RightReqs: r,
		Tree: physio.JoinTree(kind, opt, lcol, rcol)}
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
	lreqs, rreqs := kind.Requirements(buildKey, probeKey)
	if !build.Props.SatisfiesAll(lreqs) || !probe.Props.SatisfiesAll(rreqs) {
		// The heuristic's requirements are derived from the same properties
		// it inspects, so this is defensive: fall back to the hash join,
		// which requires nothing.
		kind = physical.HJ
		lreqs, rreqs = kind.Requirements(buildKey, probeKey)
	}
	// Cost probes run on bare choices; the granule tree (an EXPLAIN surface
	// the cost model never reads) is built once, for the winner only.
	opt := physical.JoinOptions{}
	o.stats.Alternatives++
	chCost := o.mode.Model.Join(physio.JoinChoice{Kind: kind}, build.Rows, probe.Rows, buildDistinct)
	// Parallel twin: one extra probe for the DOP-invariant kernels.
	if dop := o.dop(); dop > 1 && rows > 0 && kind != physical.OJ {
		popt := physical.JoinOptions{Parallel: dop}
		o.stats.Alternatives++
		if pc := o.mode.Model.Join(physio.JoinChoice{Kind: kind, Opt: popt}, build.Rows, probe.Rows, buildDistinct); pc < chCost {
			opt, chCost = popt, pc
		}
	}
	ch := physio.JoinChoice{Kind: kind, Opt: opt, LeftReqs: lreqs, RightReqs: rreqs,
		Tree: physio.JoinTree(kind, opt, buildKey, probeKey)}
	p := &Plan{
		Op: OpJoin, Children: []*Plan{lp, rp},
		Join: ch, LeftKey: n.LeftKey, RightKey: n.RightKey, Swapped: swapped,
		DOP:    ch.Opt.Parallel,
		KeyDom: build.Props.Domain(buildKey),
		Props:  o.restrict(o.joinOutProps(ch, build.Props, probe.Props, buildKey, probeKey)),
		Rows:   rows,
		Cost:   lp.Cost + rp.Cost + chCost,
	}
	setJoinFootprint(p, lp, rp, cost.MemJoin(ch, build.Rows, probe.Rows, buildDistinct, rows))

	// AV-backed join: a prebuilt index on either base scan's join key
	// prepaid the build phase — one probe each decides whether the
	// probe-only cost beats the greedy pick.
	for _, ap := range o.indexedJoins(n, rows, []*Plan{lp}, []*Plan{rp}, func(scan *logical.Scan) *Plan {
		return o.greedyScan(scan, "")
	}) {
		if ap.Cost < p.Cost {
			p = ap
		}
	}
	return o.greedyDegrade(p), nil
}

// greedyGroupChoice builds one fully resolved grouping choice.
func greedyGroupChoice(kind physical.GroupKind, opt physical.GroupOptions, key string) physio.GroupChoice {
	return physio.GroupChoice{Kind: kind, Opt: opt, Reqs: kind.Requirements(key),
		Tree: physio.GroupTree(kind, opt, key)}
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
		choices := physio.GroupChoices(n.Key, o.mode.Depth, o.dop())
		if filtered := o.mode.GroupFilter(n.Key, choices); len(filtered) > 0 {
			var ch physio.GroupChoice
			picked := false
			var bestCost float64
			for i := range filtered {
				fc := filtered[i]
				if !c.Props.SatisfiesAll(fc.Reqs) {
					continue
				}
				o.stats.Alternatives++
				fcCost := o.mode.Model.Group(fc, c.Rows, groups)
				if !picked || fcCost < bestCost {
					ch, bestCost, picked = fc, fcCost, true
				}
			}
			if !picked {
				// No pinned choice is satisfiable on the raw input: enforce
				// order (sorting satisfies grouped-ness) and retry.
				c = o.sortPlan(c, n.Key, sortx.Radix, true)
				for i := range filtered {
					fc := filtered[i]
					if !c.Props.SatisfiesAll(fc.Reqs) {
						continue
					}
					o.stats.Alternatives++
					fcCost := o.mode.Model.Group(fc, c.Rows, groups)
					if !picked || fcCost < bestCost {
						ch, bestCost, picked = fc, fcCost, true
					}
				}
			}
			if picked {
				return o.finishGroup(n, c, ch, rows, groups), nil
			}
		}
	}

	if !c.Props.SatisfiesAll(kind.Requirements(n.Key)) {
		kind = physical.HG
	}
	// Cost probes on bare choices; the granule tree is built for the winner.
	opt := physical.GroupOptions{}
	o.stats.Alternatives++
	chCost := o.mode.Model.Group(physio.GroupChoice{Kind: kind}, c.Rows, groups)
	if dop := o.dop(); dop > 1 && rows > 0 && kind != physical.OG {
		popt := physical.GroupOptions{Parallel: dop}
		o.stats.Alternatives++
		if pc := o.mode.Model.Group(physio.GroupChoice{Kind: kind, Opt: popt}, c.Rows, groups); pc < chCost {
			opt = popt
		}
	}
	return o.finishGroup(n, c, greedyGroupChoice(kind, opt, n.Key), rows, groups), nil
}

// finishGroup assembles the grouping plan node for the chosen granule.
func (o *optimizer) finishGroup(n *logical.GroupBy, c *Plan, ch physio.GroupChoice, rows, groups float64) *Plan {
	p := &Plan{
		Op: OpGroup, Children: []*Plan{c},
		Group: ch, GroupKey: n.Key, Aggs: n.Aggs,
		DOP:    ch.Opt.Parallel,
		KeyDom: c.Props.Domain(n.Key),
		Props:  o.restrict(ch.Kind.OutputProps(c.Props, n.Key)),
		Rows:   rows,
		Cost:   c.Cost + o.mode.Model.Group(ch, c.Rows, groups),
	}
	p.Width = 4 + 8*float64(len(n.Aggs))
	resident := c.Rows*c.Width + cost.MemGroup(ch, c.Rows, groups) + rows*p.Width
	p.Mem = math.Max(c.Mem, resident)
	return o.greedyDegrade(p)
}

// greedyDegrade applies the memory budget to a greedy join/group pick: a
// hash-based choice whose estimated footprint exceeds the budget degrades to
// its sort-based sibling when that fits — mirroring what budgeted DP
// enumeration converges to; the runtime govern.Budget remains the backstop.
func (o *optimizer) greedyDegrade(p *Plan) *Plan {
	if o.mode.MemBudget <= 0 || p.Mem <= float64(o.mode.MemBudget) {
		return p
	}
	budget := float64(o.mode.MemBudget)
	switch p.Op {
	case OpGroup:
		if p.Group.Kind != physical.HG && p.Group.Kind != physical.SPHG {
			return p
		}
		c := p.Children[0]
		groups := float64(p.KeyDom.Distinct)
		if groups <= 0 {
			groups = p.Rows
		}
		ch := greedyGroupChoice(physical.SOG, physical.GroupOptions{Sort: sortx.Radix}, p.GroupKey)
		o.stats.Alternatives++
		alt := &Plan{
			Op: OpGroup, Children: []*Plan{c},
			Group: ch, GroupKey: p.GroupKey, Aggs: p.Aggs,
			KeyDom: p.KeyDom,
			Props:  o.restrict(ch.Kind.OutputProps(c.Props, p.GroupKey)),
			Rows:   p.Rows,
			Cost:   c.Cost + o.mode.Model.Group(ch, c.Rows, groups),
		}
		alt.Width = p.Width
		resident := c.Rows*c.Width + cost.MemGroup(ch, c.Rows, groups) + p.Rows*alt.Width
		alt.Mem = math.Max(c.Mem, resident)
		if alt.Mem <= budget || alt.Mem < p.Mem {
			return alt
		}
	case OpJoin:
		if p.Join.Kind != physical.HJ || p.Index != nil {
			return p
		}
		lp, rp := p.Children[0], p.Children[1]
		build, probe := lp, rp
		buildKey, probeKey := p.LeftKey, p.RightKey
		if p.Swapped {
			build, probe = rp, lp
			buildKey, probeKey = p.RightKey, p.LeftKey
		}
		buildDistinct := float64(p.KeyDom.Distinct)
		if buildDistinct <= 0 {
			buildDistinct = build.Rows
		}
		ch := greedyJoinChoice(physical.SOJ, physical.JoinOptions{Sort: sortx.Radix}, buildKey, probeKey)
		o.stats.Alternatives++
		alt := &Plan{
			Op: OpJoin, Children: []*Plan{lp, rp},
			Join: ch, LeftKey: p.LeftKey, RightKey: p.RightKey, Swapped: p.Swapped,
			KeyDom: p.KeyDom,
			Props:  o.restrict(o.joinOutProps(ch, build.Props, probe.Props, buildKey, probeKey)),
			Rows:   p.Rows,
			Cost:   lp.Cost + rp.Cost + o.mode.Model.Join(ch, build.Rows, probe.Rows, buildDistinct),
		}
		setJoinFootprint(alt, lp, rp, cost.MemJoin(ch, build.Rows, probe.Rows, buildDistinct, p.Rows))
		if alt.Mem <= budget || alt.Mem < p.Mem {
			return alt
		}
	}
	return p
}
