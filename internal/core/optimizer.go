package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"dqo/internal/cost"
	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// Stats reports what the optimiser did.
type Stats struct {
	Alternatives int           // physical alternatives costed
	Kept         int           // Pareto entries surviving per-property pruning
	Duration     time.Duration // wall-clock optimisation time
}

// Result is the outcome of an optimisation run.
type Result struct {
	Best  *Plan
	Mode  Mode
	Stats Stats
}

// Physicality returns the mean physicality (share of molecule-level
// granules, see physio.Granule.Physicality) over the chosen plan's join and
// grouping implementations — how deeply the winning plan was unnested.
func (r *Result) Physicality() float64 {
	total, n := 0.0, 0
	r.Best.PreOrder(func(p *Plan, _ int) {
		if tree := p.GranuleTree(); tree != nil {
			total += tree.Physicality()
			n++
		}
	})
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// Optimize compiles a logical plan into the cheapest physical plan under the
// mode's cost model, using property-tracking dynamic programming: for every
// subtree it keeps the cheapest plan per distinct property vector
// (generalised interesting orders — exactly the mechanism the paper extends
// from sortedness to density and friends).
func Optimize(n logical.Node, mode Mode) (*Result, error) {
	est, err := logical.NewEstimatorFor(n)
	if err != nil {
		return nil, err
	}
	if mode.Model == nil {
		return nil, fmt.Errorf("core: mode %q has no cost model", mode.Name)
	}
	start := time.Now()
	o, err := newOptimizer(n, mode, est)
	if err != nil {
		return nil, err
	}
	var plans []slot
	if mode.Greedy {
		plans, err = o.greedy(n, 0)
	} else {
		plans, err = o.optimize(n)
	}
	if err != nil {
		return nil, err
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: no plan found for %s", n)
	}
	best := slices.MinFunc(plans, func(a, b slot) int { return cmp.Compare(a.cost, b.cost) }) // the first of the cheapest
	p := o.build(&best)
	o.stats.Duration = time.Since(start)
	o.stats.Kept = len(plans)
	return &Result{Best: p, Mode: mode, Stats: o.stats}, nil
}

type optimizer struct {
	mode  Mode
	stats Stats
	tab   *props.Table // numbers the query's columns for every set of the run
	// scans memoises a relation's scan properties, which every tier revisits
	// (twins, AV variants, filter bases); est memoises the estimates.
	scans []scanProps
	est   *logical.Estimator
	aux   []aux // the payloads slots refer to by position + 1
	// slab holds the finished tables' slots (keep); buf is the scratch table
	// a site under construction takes (site.table).
	slab, buf []slot
}

type scanProps struct {
	rel *storage.Relation
	outProps
}

// newOptimizer numbers the columns of n (its scans' relations and their AV
// variants, and its key columns) for a run under mode, estimating through est.
func newOptimizer(n logical.Node, mode Mode, est *logical.Estimator) (*optimizer, error) {
	scans, keys := logical.Inputs(n)
	rels := make([]*storage.Relation, 0, len(scans))
	for _, s := range scans {
		rels = append(rels, s.Rel)
		if mode.Scans != nil {
			for _, v := range mode.Scans.ScanVariants(s.Table) {
				rels = append(rels, v.Rel)
			}
		}
	}
	o := &optimizer{mode: mode, tab: props.NewTable(rels, keys, mode.Depth == physio.Deep), est: est,
		scans: make([]scanProps, 0, len(rels))}
	for _, k := range keys {
		if _, ok := o.tab.Col(k); !ok {
			return nil, fmt.Errorf("core: %s names more than %d key columns", n, props.MaxCols)
		}
	}
	return o, nil
}

// col returns the ordinal of a key column (newOptimizer numbered them all).
func (o *optimizer) col(name string) props.Col {
	c, _ := o.tab.Col(name)
	return c
}

// colsOf returns the numbered columns among names.
func (o *optimizer) colsOf(names []string) props.Cols {
	var cs props.Cols
	for _, name := range names {
		if c, ok := o.tab.Col(name); ok {
			cs |= props.ColsOf(c)
		}
	}
	return cs
}

// addAux stores an alternative's payload and returns its reference.
func (o *optimizer) addAux(a aux) int32 {
	o.aux = append(o.aux, a)
	return int32(len(o.aux))
}

// scanPropsOf returns the property set of a stored relation with its table
// key, computed once per run.
func (o *optimizer) scanPropsOf(rel *storage.Relation) outProps {
	for i := range o.scans {
		if o.scans[i].rel == rel {
			return o.scans[i].outProps
		}
	}
	ps := keyed(o.tab.Scan(rel))
	o.scans = append(o.scans, scanProps{rel, ps})
	return ps
}

// The footprint of a node is its estimated output row width and peak
// resident memory (Plan.Width / Plan.Mem), derived from its children:
// breakers account their materialised input, kernel working set and output;
// streaming operators what their consumer accumulates.

// sortMem is the Mem of a sort of c: input, sort working set and output
// resident at once.
func sortMem(c *slot, parallel bool) float64 {
	resident := c.rows*c.width + cost.MemSort(c.rows, parallel) + c.rows*c.width
	return max(c.mem, resident)
}

// joinMem is the Mem of a join of lp and rp emitting rows rows: both inputs
// materialised, the kernel's working set, and the emitted pair-gathered
// output resident at once.
func joinMem(lp, rp *slot, rows, work float64) float64 {
	resident := lp.rows*lp.width + rp.rows*rp.width + work + rows*(lp.width+rp.width)
	return max(lp.mem, rp.mem, resident)
}

// groupWidth is the output row width of a grouping with the given aggregates.
func groupWidth(aggs []expr.AggSpec) float64 { return 4 + 8*float64(len(aggs)) }

// groupMem is the Mem of a grouping of c into rows groups of the given width.
func groupMem(c *slot, rows, width, work float64) float64 {
	return max(c.mem, c.rows*c.width+work+rows*width)
}

func (o *optimizer) sortKinds() []sortx.Kind {
	if o.mode.Depth == physio.Deep {
		return sortx.Kinds()
	}
	return []sortx.Kind{sortx.Radix}
}

// isStreamSegment reports whether p is a scan→filter→project chain a
// parallel pipe can be fanned over. Cracked and direct-on-compressed
// filters are not: both replace the scan with a whole-table probe.
func isStreamSegment(p *slot) bool {
	for {
		switch {
		case p.op == OpScan:
			return true
		case p.op == OpFilter && p.v == ordinary, p.op == OpProject:
			p = p.in[0]
		default:
			return false
		}
	}
}

// The constructors below describe one alternative as a slot; the plan node
// is built from it only if it is part of the chosen plan (build).

// scanSlot is one way of reading n's table, of rows rows: the stored
// relation, the AV variant av of it (rel), or (enc set) its compressed-scan
// twin.
func (o *optimizer) scanSlot(n *logical.Scan, rel *storage.Relation, av string, enc storage.Encoding, rows, cost float64) slot {
	ps, width := o.scanPropsOf(rel), 8.0
	if rows := rel.NumRows(); rows > 0 {
		width = float64(rel.MemBytes()) / float64(rows)
	}
	p := slot{key: ps.key, props: ps.set, cost: cost, rows: rows, width: width, node: n, how: how{op: OpScan, enc: enc}}
	if av != "" {
		p.aux = o.addAux(aux{rel: rel, av: av})
	}
	return p
}

// filterSlot is the filter of c by n's predicate, as a stage of a dop-wide
// morsel pipe when dop > 1. A filter keeps its input's properties, domains
// as bounds included (a filtered dense domain stays SPH-addressable), and
// the pipe re-emits morsels in input order: parallelism is a cost trade.
func filterSlot(n *logical.Filter, c *slot, dop int, rows, cost float64) slot {
	return slot{key: c.key, props: c.props, cost: cost, rows: rows, width: c.width, mem: max(c.mem, rows*c.width),
		in: [2]*slot{c}, node: n, how: how{op: OpFilter, dop: dop}}
}

// sortSlot is the sort of c by key (a user sort, or an enforcer the
// optimiser inserts) with the given algorithm, at dop > 1 as per-worker
// sorted runs + k-way merge. out is c's vector after the sort.
func sortSlot(c *slot, key props.Col, sk sortx.Kind, dop int, enforcer bool, out outProps, cost float64) slot {
	return slot{key: out.key, props: out.set, cost: cost, rows: c.rows, width: c.width, mem: sortMem(c, dop > 1),
		in: [2]*slot{c}, how: how{op: OpSort, sort: sk, col: key, enforcer: enforcer, dop: dop}}
}

// joinSlot is the join n of lp and rp as choice ch, commuted (build on the
// right input, probe with the left) when swapped.
func joinSlot(n *logical.Join, lp, rp *slot, ch physio.JoinChoice, swapped bool, out outProps, rows, cost, mem float64) slot {
	return slot{key: out.key, props: out.set, cost: cost, rows: rows, width: lp.width + rp.width, mem: mem,
		in: [2]*slot{lp, rp}, node: n, how: how{op: OpJoin, kind: uint8(ch.Kind), hash: ch.Opt.Hash, sort: ch.Opt.Sort, dop: ch.Opt.Parallel, swapped: swapped}}
}

// build returns the plan of the slot tree under root, built top-down once
// enumeration has ended: one node per slot, the nodes and their child lists
// allocated at once (a tree of n nodes has n-1 links).
func (o *optimizer) build(root *slot) *Plan {
	n := root.size()
	b := builder{o: o, nodes: make([]Plan, n), links: make([]*Plan, n-1)}
	return b.plan(root)
}

// size counts the slots of the tree under s.
func (s *slot) size() int {
	n := 1
	for _, c := range s.in {
		if c != nil {
			n += c.size()
		}
	}
	return n
}

// builder hands out the nodes and child lists of one plan.
type builder struct {
	o     *optimizer
	nodes []Plan
	links []*Plan
}

// plan builds the node of s over the plans of its inputs.
func (b *builder) plan(s *slot) *Plan {
	p := &b.nodes[0]
	b.nodes = b.nodes[1:]
	*p = Plan{Op: s.op, DOP: s.dop, Spill: s.spill, Props: s.props, Rows: s.rows, Cost: s.cost, Width: s.width, Mem: s.mem}
	if s.spill {
		p.DOP = 0
	}
	k := 0
	for k < 2 && s.in[k] != nil {
		k++
	}
	if k > 0 {
		p.Children, b.links = b.links[:k:k], b.links[k:]
	}
	for i := range p.Children {
		p.Children[i] = b.plan(s.in[i])
	}
	var x aux
	if s.aux > 0 {
		x = b.o.aux[s.aux-1]
	}
	switch n := s.node.(type) {
	case *logical.Scan:
		p.Table, p.Rel, p.Enc, p.AV = n.Table, n.Rel, s.enc, x.av
		if x.rel != nil {
			p.Rel = x.rel
		}
	case *logical.Filter:
		p.Pred, p.AV, p.Crack, p.CrackLo, p.CrackHi = n.Pred, x.av, x.crack, x.lo, x.hi
		p.Enc, p.EncCol, p.EncLo, p.EncHi, p.SegsSkipped, p.SegsTotal = s.enc, x.encCol, x.encLo, x.encHi, x.skipped, x.total
	case *logical.Project:
		p.Cols = n.Cols
	case *logical.Join:
		p.Join = physio.JoinChoice{Kind: physical.JoinKind(s.kind), Opt: physical.JoinOptions{Hash: s.hash, Sort: s.sort, Parallel: s.dop}}
		p.LeftKey, p.RightKey, p.Swapped, p.AV, p.Index = n.LeftKey, n.RightKey, s.swapped, x.av, x.index
		build, key := p.Children[0], n.LeftKey
		if s.swapped {
			build, key = p.Children[1], n.RightKey
		}
		p.KeyDom = build.Props.Domain(b.o.col(key))
	case *logical.GroupBy:
		p.Group = physio.GroupChoice{Kind: physical.GroupKind(s.kind), Opt: physical.GroupOptions{Hash: s.hash, Sort: s.sort, Parallel: s.dop}}
		p.GroupKey, p.Aggs = n.Key, n.Aggs
		p.KeyDom = p.Children[0].Props.Domain(b.o.col(n.Key))
	default:
		p.SortKey, p.SortKind, p.Enforcer = b.o.tab.Column(s.col).Name, s.sort, s.enforcer
	}
	return p
}

// optimize returns the DP table of n: per distinct output property vector
// the cheapest alternative. Every site costs its alternatives one by one
// against a site table, which keeps each that takes a place as a slot.
func (o *optimizer) optimize(n logical.Node) ([]slot, error) {
	t := site{o: o}
	switch n := n.(type) {
	case *logical.Scan:
		o.enumScan(&t, n)

	case *logical.Filter:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		o.enumFilter(&t, n, children, o.est.Estimate(n), serialTwins|parallelTwins)

	case *logical.Project:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		keep := o.colsOf(n.Cols)
		for i := range children {
			c := &children[i]
			out := keyed(c.props.Project(keep))
			if p := t.admit(ordinary, out.key, c.cost); p != nil {
				*p = projectSlot(n, c, out)
			}
		}

	case *logical.Sort:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		for i := range children {
			o.enumSort(&t, &children[i], o.col(n.Key), false, o.sortKinds(), serialTwins|parallelTwins)
		}

	case *logical.Join:
		lefts, err := o.optimize(n.Left)
		if err != nil {
			return nil, err
		}
		rights, err := o.optimize(n.Right)
		if err != nil {
			return nil, err
		}
		o.enumJoin(&t, &joinIn{
			n: n, lefts: o.withEnforcers(lefts, o.col(n.LeftKey)), rights: o.withEnforcers(rights, o.col(n.RightKey)),
			swaps: []bool{false, true}, choices: o.joinChoices(), rows: o.est.Estimate(n),
			distinct: [2]float64{o.est.ColDistinct(n.Left, n.LeftKey), o.est.ColDistinct(n.Right, n.RightKey)},
			indexed:  true,
		})
		if t.empty() {
			return nil, fmt.Errorf("core: no applicable join implementation for %s", n)
		}

	case *logical.GroupBy:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		o.enumGroup(&t, n, o.withEnforcers(children, o.col(n.Key)), o.groupChoices(),
			o.est.Estimate(n), o.est.ColDistinct(n.Input, n.Key))
		if t.empty() {
			return nil, fmt.Errorf("core: no applicable grouping implementation for %s", n)
		}

	default:
		return nil, fmt.Errorf("core: cannot optimise %T", n)
	}
	return t.table(), nil
}

// projectSlot is the projection of c onto n's columns, with output vector
// out. Projection is zero-cost; it inherits the child's pipe membership so a
// project above a parallel filter stays inside the same morsel pipe.
func projectSlot(n *logical.Project, c *slot, out outProps) slot {
	dop := 0
	if c.op == OpFilter || c.op == OpProject {
		dop = c.dop
	}
	width := 8 * float64(len(n.Cols))
	if c.width > 0 && width > c.width {
		width = c.width
	}
	return slot{key: out.key, props: out.set, cost: c.cost, rows: c.rows, width: width, mem: c.mem,
		in: [2]*slot{c}, node: n, how: how{op: OpProject, dop: dop}}
}

// Each kind of site has one enumerator below, which offers t every
// alternative its input admits, variants included, in one fixed order. The
// DP passes a site's whole input, the greedy tier the input it narrowed to.

// enumScan offers t every way of reading n's table: the stored relation; its
// Algorithmic-View access paths (e.g. sorted projections: other properties at
// plain scan cost); and, at deep enumeration, the compressed-scan twin, which
// decodes every segment once instead of per morsel. The twin's output is the
// scan's, so a model blind to storage format (Paper) ties them and the plain
// scan, enumerated first, wins.
func (o *optimizer) enumScan(t *site, n *logical.Scan) {
	rows := o.est.Estimate(n)
	offer := func(v variant, rel *storage.Relation, av string, enc storage.Encoding, cost float64) {
		if p := t.admit(v, o.scanPropsOf(rel).key, cost); p != nil {
			*p = o.scanSlot(n, rel, av, enc, rows, cost)
		}
	}
	offer(ordinary, n.Rel, "", storage.EncNone, o.mode.Model.Scan(rows))
	if o.mode.Scans != nil {
		for _, v := range o.mode.Scans.ScanVariants(n.Table) {
			if t.considers(avScan, o.scanPropsOf(v.Rel).set) {
				offer(avScan, v.Rel, v.Label, storage.EncNone, o.mode.Model.Scan(rows))
			}
		}
	}
	if enc := relCompression(n.Rel); enc != storage.EncNone && o.mode.Depth == physio.Deep {
		offer(ordinary, n.Rel, "", enc, o.mode.Model.ScanCompressed(rows))
	}
}

// enumFilter offers t the filter n over each of children, emitting rows:
// serially and, over a streaming segment, as the parallel pipe; then, with
// the serial twins, for a range filter directly over a scan, as the cracked
// index (piece order, so no order) and at deep enumeration as the
// direct-on-compressed filter (priced from the exact zone-map census), both
// over the bare scan the consumer plans (site.scanBase).
func (o *optimizer) enumFilter(t *site, n *logical.Filter, children []slot, rows float64, twins twinSet) {
	for i := range children {
		c := &children[i]
		if cost := c.cost + o.mode.Model.Filter(c.rows); twins&serialTwins != 0 {
			if p := t.admit(ordinary, c.key, cost); p != nil {
				*p = filterSlot(n, c, 0, rows, cost)
			}
		}
		if dop := o.mode.dop(); dop > 1 && twins&parallelTwins != 0 && isStreamSegment(c) {
			cost := c.cost + o.mode.Model.Parallel(o.mode.Model.Filter(c.rows), dop)
			if p := t.admit(ordinary, c.key, cost); p != nil {
				*p = filterSlot(n, c, dop, rows, cost)
			}
		}
	}
	scan, isScan := n.Input.(*logical.Scan)
	if twins&serialTwins == 0 || !isScan {
		return
	}
	col, lo, hi, isRange := relKeyRange(n.Pred, scan.Rel)
	if isRange && o.mode.CrackedIdx != nil {
		if idx, have := o.mode.CrackedIdx.Cracked(scan.Table, col); have && t.considers(cracked, props.Set{}) {
			base := t.scanBase(scan, storage.EncNone)
			out, cost := keyed(base.props.DropOrder()), base.cost+o.mode.Model.Filter(rows)
			if p := t.admit(cracked, out.key, cost); p != nil {
				*p = filterSlot(n, base, 0, rows, cost)
				p.key, p.props, p.v = out.key, out.set, cracked
				p.aux = o.addAux(aux{av: idx.Label(), crack: idx, lo: lo, hi: hi})
			}
		}
	}
	if isRange && o.mode.Depth == physio.Deep {
		if plo, phi, ok := encBounds(lo, hi); ok {
			enc, skipped, total, work, ok := encFilterTarget(scan.Rel, col, plo, phi)
			if ok && t.considers(encoded, props.Set{}) {
				base := t.scanBase(scan, enc)
				cost := base.cost + o.mode.Model.FilterCompressed(base.rows, float64(work), rows)
				if p := t.admit(encoded, base.key, cost); p != nil {
					*p = filterSlot(n, base, 0, rows, cost)
					p.v, p.enc = encoded, enc
					p.aux = o.addAux(aux{encCol: col, encLo: plo, encHi: phi, skipped: skipped, total: total})
				}
			}
		}
	}
}

// joinOutProps derives the output properties of a join of the given kind. A
// mode that does not track probe order is not told that probe-major joins
// keep the probe side's order. The kind matters only through joinSorted.
func (o *optimizer) joinOutProps(kind physical.JoinKind, build, probe props.Set, buildKey, probeKey props.Col) props.Set {
	out := kind.OutputProps(build, probe, buildKey, probeKey)
	if !o.mode.TrackProbeOrder && !kind.KeyOrdered() {
		out = out.DropOrder()
	}
	return out
}

// joinSorted reports whether joinOutProps of kind over this probe side is in
// key order (physical.JoinKind.SortsOutput, where the mode lets it tell).
func (o *optimizer) joinSorted(kind physical.JoinKind, probe props.Set, probeKey props.Col) bool {
	return (o.mode.TrackProbeOrder || kind.KeyOrdered()) && kind.SortsOutput(probe, probeKey)
}

// twinSet selects which realisations enumFilter and enumSort offer: the
// serial ones, their parallel twins, or both.
type twinSet uint8

const (
	serialTwins twinSet = 1 << iota
	parallelTwins
)

// enumSort offers t the sorts of c by key: each of kinds serially and, at
// DOP > 1, as its parallel twin — one property vector for all. A user sort
// of input sorted on key is a zero-cost no-op without a twin. A user sort is
// a breaker under the memory budget; enforcers are pruned at the operator
// above. Sorts spill at any kind, serially.
func (o *optimizer) enumSort(t *site, c *slot, key props.Col, enforcer bool, kinds []sortx.Kind, twins twinSet) {
	fit := o.fits(c)
	if !enforcer && c.props.SortedOn(key) {
		if twins&serialTwins == 0 {
			return
		}
		if p := t.admitBreaker(c.key, c.cost, sortMem(c, false), twinRank(true, fit)); p != nil {
			*p = sortSlot(c, key, sortx.Radix, 0, false, outProps{set: c.props, key: c.key}, c.cost)
		}
		return
	}
	out := keyed(c.props.AfterSortBy(key))
	offer := func(sk sortx.Kind, dop int, cost float64) {
		var p *slot
		if enforcer {
			p = t.admit(ordinary, out.key, cost)
		} else {
			p = t.admitBreaker(out.key, cost, sortMem(c, dop > 1), twinRank(dop <= 1, fit))
		}
		if p != nil {
			*p = sortSlot(c, key, sk, dop, enforcer, out, cost)
		}
	}
	dop := o.mode.dop()
	for _, sk := range kinds {
		serial := o.mode.Model.SortBy(c.rows, sk)
		if twins&serialTwins != 0 {
			offer(sk, 0, c.cost+serial)
		}
		if dop > 1 && twins&parallelTwins != 0 {
			offer(sk, dop, c.cost+o.mode.Model.Parallel(serial, dop))
		}
	}
}

// withEnforcers returns the candidate input plans for an operator that
// might want its input sorted by key: the originals plus, for each plan not
// already sorted on key, sort-enforced variants.
func (o *optimizer) withEnforcers(plans []slot, key props.Col) []slot {
	// The originals come from a finished table: one vector each.
	t := site{o: o, plans: append(o.buf[:0], plans...)}
	o.buf = nil
	for i := range plans {
		if p := &plans[i]; !p.props.SortedOn(key) {
			o.enumSort(&t, p, key, true, o.sortKinds(), serialTwins|parallelTwins)
		}
	}
	return t.table()
}

// joinChoices returns the join implementations of the mode's (depth, DOP).
func (o *optimizer) joinChoices() []physio.JoinChoice {
	return physio.JoinChoices(o.mode.Depth, o.mode.dop())
}

// joinIn is the input of a join site's enumeration.
type joinIn struct {
	n             *logical.Join
	lefts, rights []slot
	swaps         []bool // the orientations: false builds on the left input
	choices       []physio.JoinChoice
	rows          float64    // estimated output rows
	distinct      [2]float64 // distinct join keys of the left and of the right input
	indexed       bool       // also offer the AV-backed joins (indexedJoins)
}

// enumJoin offers t the implementations of in.n over every pair of its
// input plans, in each of in.swaps (the commuted join builds on the right
// input; the output schema is unchanged). Only the serial hash join has a
// disk-backed twin.
func (o *optimizer) enumJoin(t *site, in *joinIn) {
	n, rows := in.n, in.rows
	lk, rk := o.col(n.LeftKey), o.col(n.RightKey)
	for i := range in.lefts {
		lp := &in.lefts[i]
		for j := range in.rights {
			rp := &in.rights[j]
			fit := o.fits(lp, rp)
			for _, swapped := range in.swaps {
				build, probe, buildKey, probeKey, distinct := lp, rp, lk, rk, in.distinct[0]
				if swapped {
					build, probe, buildKey, probeKey, distinct = rp, lp, rk, lk, in.distinct[1]
				}
				// One output vector per output order: key-ordered (the
				// order-based family, and probe-major over a probe side
				// sorted on its key) or not.
				var sorted, unsorted outProps
				for _, ch := range in.choices {
					if !ch.Kind.Admits(build.props, probe.props, buildKey, probeKey) {
						continue
					}
					out := &unsorted
					if o.joinSorted(ch.Kind, probe.props, probeKey) {
						out = &sorted
					}
					if !out.ok {
						*out = keyed(o.joinOutProps(ch.Kind, build.props, probe.props, buildKey, probeKey))
					}
					total := lp.cost + rp.cost + o.mode.Model.Join(ch, build.rows, probe.rows, distinct)
					mem := joinMem(lp, rp, rows, cost.MemJoin(ch, build.rows, probe.rows, distinct, rows))
					spillable := ch.Kind == physical.HJ && ch.Opt.Parallel <= 1
					if p := t.admitBreaker(out.key, total, mem, twinRank(spillable, fit)); p != nil {
						*p = joinSlot(n, lp, rp, ch, swapped, *out, rows, total, mem)
					}
				}
			}
		}
	}
	if in.indexed {
		o.indexedJoins(t, n, in.lefts, in.rights, rows)
	}
}

// indexedJoins offers t the AV-backed alternatives of join n: where either
// input is the bare scan of a table with a prebuilt index on its join key,
// that index probed with each plan of the other input, charged the probe
// only (an index under the right input is the commuted join). The consumer
// plans the indexed table's bare scan.
func (o *optimizer) indexedJoins(t *site, n *logical.Join, lefts, rights []slot, rows float64) {
	if o.mode.Indexes == nil {
		return
	}
	for _, swapped := range [2]bool{false, true} {
		buildNode, buildKey, probeKey, probes := n.Left, n.LeftKey, n.RightKey, rights
		if swapped {
			buildNode, buildKey, probeKey, probes = n.Right, n.RightKey, n.LeftKey, lefts
		}
		scan, ok := buildNode.(*logical.Scan)
		if !ok {
			continue
		}
		idx, have := o.mode.Indexes.Index(scan.Table, buildKey)
		if !have {
			continue
		}
		base := t.scanBase(scan, storage.EncNone)
		distinct := o.est.ColDistinct(scan, buildKey)
		ch := physio.JoinChoice{Kind: physical.HJ, Opt: physical.JoinOptions{Hash: idx.Hash()}}
		if idx.SPH() {
			ch.Kind = physical.SPHJ
		}
		a := o.addAux(aux{av: idx.Label(), index: idx})
		for i := range probes {
			pp := &probes[i]
			lp, rp := base, pp
			if swapped {
				lp, rp = pp, base
			}
			out := keyed(o.joinOutProps(ch.Kind, base.props, pp.props, o.col(buildKey), o.col(probeKey)))
			total := base.cost + pp.cost + o.mode.Model.Join(ch, 0, pp.rows, distinct)
			mem := joinMem(lp, rp, rows, cost.MemJoin(ch, 0, pp.rows, distinct, rows))
			if p := t.admitBreaker(out.key, total, mem, noTwin); p != nil {
				*p = joinSlot(n, lp, rp, ch, swapped, out, rows, total, mem)
				p.aux = a
			}
		}
	}
}

// groupChoices returns the grouping implementations of the mode's (depth, DOP).
func (o *optimizer) groupChoices() []physio.GroupChoice {
	return physio.GroupChoices(o.mode.Depth, o.mode.dop())
}

// enumGroup offers t the groupings n of each of children into an estimated
// rows output rows of groups distinct keys, as every choice the child
// admits. Only the serial hash aggregation has a disk-backed twin: its
// first-seen iteration order is partition-recomposable.
func (o *optimizer) enumGroup(t *site, n *logical.GroupBy, children []slot, choices []physio.GroupChoice, rows, groups float64) {
	key, width := o.col(n.Key), groupWidth(n.Aggs)
	for i := range children {
		c := &children[i]
		fit := o.fits(c)
		// One output vector per output order (physical.GroupKind.SortsOutput):
		// sorted on key, or only grouped on it.
		var sorted, grouped outProps
		for _, ch := range choices {
			if !ch.Kind.Admits(c.props, key) {
				continue
			}
			out := &grouped
			if ch.Kind.SortsOutput(c.props, key) {
				out = &sorted
			}
			if !out.ok {
				*out = keyed(ch.Kind.OutputProps(c.props, key))
			}
			total := c.cost + o.mode.Model.Group(ch, c.rows, groups)
			mem := groupMem(c, rows, width, cost.MemGroup(ch, c.rows, groups))
			spillable := ch.Kind == physical.HG && ch.Opt.Parallel <= 1
			if p := t.admitBreaker(out.key, total, mem, twinRank(spillable, fit)); p != nil {
				*p = slot{key: out.key, props: out.set, cost: total, rows: rows, width: width, mem: mem,
					in: [2]*slot{c}, node: n, how: how{op: OpGroup, kind: uint8(ch.Kind), hash: ch.Opt.Hash, sort: ch.Opt.Sort, dop: ch.Opt.Parallel}}
			}
		}
	}
}

// CompareModes optimises the same logical plan under two modes and returns
// the improvement factor baseline/over — the quantity Figure 5 reports
// ("improvement factors for the estimated plan costs of DQO over SQO").
// Both costs are measured under the baseline's cost model scale (the two
// modes must share a model for the factor to be meaningful).
func CompareModes(n logical.Node, baseline, improved Mode) (base, better *Result, factor float64, err error) {
	base, err = Optimize(n, baseline)
	if err != nil {
		return nil, nil, 0, err
	}
	better, err = Optimize(n, improved)
	if err != nil {
		return nil, nil, 0, err
	}
	if better.Best.Cost == 0 {
		return base, better, 1, nil
	}
	return base, better, base.Best.Cost / better.Best.Cost, nil
}
