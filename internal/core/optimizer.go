package core

import (
	"fmt"
	"math"
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
	if err := logical.Validate(n); err != nil {
		return nil, err
	}
	if mode.Model == nil {
		return nil, fmt.Errorf("core: mode %q has no cost model", mode.Name)
	}
	start := time.Now()
	o := &optimizer{mode: mode}
	var plans []*Plan
	var err error
	if mode.Greedy {
		var best *Plan
		best, err = o.greedy(n, "")
		plans = []*Plan{best}
	} else {
		plans, err = o.optimize(n)
	}
	if err != nil {
		return nil, err
	}
	best := cheapest(plans)
	if best == nil {
		return nil, fmt.Errorf("core: no plan found for %s", n)
	}
	o.stats.Duration = time.Since(start)
	o.stats.Kept = len(plans)
	return &Result{Best: best, Mode: mode, Stats: o.stats}, nil
}

type optimizer struct {
	mode  Mode
	stats Stats
	// scanProps memoises the restricted scan properties per relation: every
	// tier revisits base relations within one run (compressed twins, AV
	// variants and fallbacks, cracked and direct-on-compressed filter bases),
	// and the extraction walks every column's statistics.
	scanProps map[*storage.Relation]outProps
	// est shares one memoised cardinality estimator across the whole run —
	// the greedy pass asks about every node it visits, and the DP tiers
	// revisit subtree cardinalities per enumeration site.
	est *logical.Estimator
}

// estimator returns the run-shared memoised estimator, creating it on first
// use.
func (o *optimizer) estimator() *logical.Estimator {
	if o.est == nil {
		o.est = logical.NewEstimator()
	}
	return o.est
}

// cheapest returns the lowest-cost plan (ties: first wins, which prefers
// the earlier-enumerated, less physical alternative — matching the paper's
// outcome that order-based plans win the sorted/sorted cell).
func cheapest(plans []*Plan) *Plan {
	var best *Plan
	for _, p := range plans {
		if best == nil || p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// scanPropsOf returns the restricted property set of a stored relation with
// its table key, computed once per run. Property sets are immutable once
// built, so every plan over the relation shares the one value.
func (o *optimizer) scanPropsOf(rel *storage.Relation) outProps {
	if ps, ok := o.scanProps[rel]; ok {
		return ps
	}
	ps := keyed(o.restrict(logical.ScanProps(rel)))
	if o.scanProps == nil {
		o.scanProps = make(map[*storage.Relation]outProps, 8)
	}
	o.scanProps[rel] = ps
	return ps
}

// The footprint of a node is its estimated output row width and peak
// resident memory (Plan.Width / Plan.Mem), derived from its children:
// breakers account their materialised input, kernel working set, and output;
// streaming operators only what their consumer accumulates. Breaker sites
// compute Mem before they build a plan, because a mode with a MemBudget prunes
// on it.

// setFootprint fills Width and Mem of a scan, filter, project or sort node.
func setFootprint(p *Plan) {
	switch p.Op {
	case OpScan:
		p.Width = 8
		if n := p.Rel.NumRows(); n > 0 {
			p.Width = float64(p.Rel.MemBytes()) / float64(n)
		}
		p.Mem = 0 // morsels are zero-copy views of the base table
	case OpFilter:
		c := p.Children[0]
		p.Width = c.Width
		p.Mem = math.Max(c.Mem, p.Rows*p.Width)
	case OpProject:
		c := p.Children[0]
		p.Width = 8 * float64(len(p.Cols))
		if c.Width > 0 && p.Width > c.Width {
			p.Width = c.Width
		}
		p.Mem = c.Mem
	case OpSort:
		c := p.Children[0]
		p.Width = c.Width
		p.Mem = sortMem(c, p.DOP > 1)
	}
}

// sortMem is the Mem of a sort of c: input, sort working set and output
// resident at once.
func sortMem(c *Plan, parallel bool) float64 {
	resident := c.Rows*c.Width + cost.MemSort(c.Rows, parallel) + c.Rows*c.Width
	return math.Max(c.Mem, resident)
}

// joinMem is the Mem of a join of lp and rp emitting rows rows: both inputs
// materialised, the kernel's working set, and the emitted pair-gathered
// output resident at once.
func joinMem(lp, rp *Plan, rows, work float64) float64 {
	resident := lp.Rows*lp.Width + rp.Rows*rp.Width + work + rows*(lp.Width+rp.Width)
	return math.Max(math.Max(lp.Mem, rp.Mem), resident)
}

// groupWidth is the output row width of a grouping with the given aggregates.
func groupWidth(aggs []expr.AggSpec) float64 { return 4 + 8*float64(len(aggs)) }

// groupMem is the Mem of a grouping of c into rows groups of the given width.
func groupMem(c *Plan, rows, width, work float64) float64 {
	return math.Max(c.Mem, c.Rows*c.Width+work+rows*width)
}

// restrict hides the properties the mode does not track — the SQO/DQO
// delta. Shallow enumeration keeps sortedness (and what follows from it) but
// is blind to density: its property vector simply never contains a dense
// domain, so SPH-based alternatives are unreachable.
//
// Sets are immutable once built, so a set with nothing dense is returned
// as-is and otherwise only the domain map is copied.
func (o *optimizer) restrict(s props.Set) props.Set {
	if o.mode.Depth == physio.Deep {
		return s
	}
	anyDense := false
	for _, d := range s.Cols {
		if d.Dense {
			anyDense = true
			break
		}
	}
	if !anyDense {
		return s
	}
	cols := make(map[string]props.Domain, len(s.Cols))
	for c, d := range s.Cols {
		d.Dense = false
		cols[c] = d
	}
	s.Cols = cols
	return s
}

func (o *optimizer) sortKinds() []sortx.Kind {
	if o.mode.Depth == physio.Deep {
		return sortx.Kinds()
	}
	return []sortx.Kind{sortx.Radix}
}

// isStreamSegment reports whether p is a scan→filter→project chain a
// parallel pipe can be fanned over: every stage is morsel-decomposable and
// the source is a plain (or AV-variant) table scan. Cracked and
// direct-on-compressed filters are excluded — both replace the scan with a
// whole-table position-list probe.
func isStreamSegment(p *Plan) bool {
	for {
		switch {
		case p.Op == OpScan:
			return true
		case p.Op == OpFilter && p.Crack == nil && p.Enc == storage.EncNone,
			p.Op == OpProject:
			p = p.Children[0]
		default:
			return false
		}
	}
}

// The constructors below fill in the plan node p, which the consumer of the
// enumeration owns: a DP table builds each winner afresh, the greedy tier
// rewrites its one running best in place.

// inputs returns children as p's input list, reusing the list p holds when it
// is rebuilt in place.
func (p *Plan) inputs(children ...*Plan) []*Plan { return append(p.Children[:0], children...) }

// scanPlan builds one way of reading n's table: the stored relation, an AV
// variant of it, or (enc set) its compressed-scan twin.
func (o *optimizer) scanPlan(p *Plan, n *logical.Scan, rel *storage.Relation, av string, enc storage.Encoding, cost float64) {
	*p = Plan{
		Op: OpScan, Table: n.Table, Rel: rel, AV: av, Enc: enc,
		Props: o.scanPropsOf(rel).set,
		Rows:  o.estimator().Estimate(n),
		Cost:  cost,
	}
	setFootprint(p)
}

// filterPlan builds the filter of c by n's predicate, as a stage of a
// dop-wide morsel pipe when dop > 1. Filtering preserves order, clustering,
// correlations, and domains-as-bounds (a filtered dense domain stays
// SPH-addressable; it is merely no longer minimal). The pipe re-emits morsels
// in input order, so the parallel variant's properties are the serial
// filter's — parallelism is purely a cost trade the model prices with its
// Parallel term.
func filterPlan(p *Plan, n *logical.Filter, c *Plan, dop int, rows, cost float64) {
	*p = Plan{
		Op: OpFilter, Children: p.inputs(c), Pred: n.Pred, DOP: dop,
		Props: c.Props,
		Rows:  rows,
		Cost:  cost,
	}
	setFootprint(p)
}

// projectPlan builds the projection of c onto cols. Projection is zero-cost;
// it inherits the child's pipe membership so a project above a parallel
// filter stays inside the same morsel pipe.
func projectPlan(p *Plan, c *Plan, cols []string, out props.Set) {
	dop := 0
	if c.Op == OpFilter || c.Op == OpProject {
		dop = c.DOP
	}
	*p = Plan{
		Op: OpProject, Children: p.inputs(c), Cols: cols, DOP: dop,
		Props: out,
		Rows:  c.Rows,
		Cost:  c.Cost,
	}
	setFootprint(p)
}

// sortPlan builds the sort of child by key (a user sort, or an enforcer the
// optimiser inserts) with the given algorithm, at dop > 1 as per-worker
// sorted runs + k-way merge. out is child's vector after the sort.
func sortPlan(p *Plan, child *Plan, key string, sk sortx.Kind, dop int, enforcer bool, out props.Set, cost float64) {
	*p = Plan{
		Op: OpSort, Children: p.inputs(child),
		SortKey: key, SortKind: sk, Enforcer: enforcer, DOP: dop,
		Props: out,
		Rows:  child.Rows,
		Cost:  cost,
	}
	setFootprint(p)
}

// joinPlan builds the join of lp and rp on leftKey = rightKey as choice ch,
// commuted (build on the right input, probe with the left) when swapped.
func joinPlan(p *Plan, lp, rp *Plan, leftKey, rightKey string, ch physio.JoinChoice, swapped bool, out props.Set, rows, cost, mem float64) {
	build, buildKey := lp, leftKey
	if swapped {
		build, buildKey = rp, rightKey
	}
	*p = Plan{
		Op: OpJoin, Children: p.inputs(lp, rp),
		Join: ch, LeftKey: leftKey, RightKey: rightKey, Swapped: swapped,
		DOP:    ch.Opt.Parallel,
		KeyDom: build.Props.Domain(buildKey),
		Props:  out,
		Rows:   rows,
		Cost:   cost,
		Width:  lp.Width + rp.Width,
		Mem:    mem,
	}
}

// groupPlan builds the grouping of c on key as choice ch.
func groupPlan(p *Plan, c *Plan, key string, aggs []expr.AggSpec, ch physio.GroupChoice, out props.Set, rows, cost, mem float64) {
	*p = Plan{
		Op: OpGroup, Children: p.inputs(c),
		Group: ch, GroupKey: key, Aggs: aggs,
		DOP:    ch.Opt.Parallel,
		KeyDom: c.Props.Domain(key),
		Props:  out,
		Rows:   rows,
		Cost:   cost,
		Width:  groupWidth(aggs),
		Mem:    mem,
	}
}

// optimize returns the DP table of n: per distinct output property vector
// the cheapest plan. Every site costs its alternatives one by one against a
// site table and builds only those that take a place in it.
func (o *optimizer) optimize(n logical.Node) ([]*Plan, error) {
	t := site{o: o}
	switch n := n.(type) {
	case *logical.Scan:
		o.enumScan(&t, n)

	case *logical.Filter:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		o.enumFilter(&t, n, children, o.estimator().Estimate(n), serialTwins|parallelTwins)

	case *logical.Project:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		for _, c := range children {
			out := keyed(c.Props.Project(n.Cols...))
			t.offer(ordinary, out.key, c.Cost, func(p *Plan) { projectPlan(p, c, n.Cols, out.set) })
		}

	case *logical.Sort:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		for _, c := range children {
			o.enumSort(&t, c, n.Key, false, o.sortKinds(), serialTwins|parallelTwins)
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
			n: n, lefts: o.withEnforcers(lefts, n.LeftKey), rights: o.withEnforcers(rights, n.RightKey),
			swaps: []bool{false, true}, choices: o.joinChoices(), rows: o.estimator().Estimate(n),
			distinct: [2]float64{o.estimator().ColDistinct(n.Left, n.LeftKey), o.estimator().ColDistinct(n.Right, n.RightKey)},
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
		o.enumGroup(&t, n.Key, n.Aggs, o.withEnforcers(children, n.Key), o.groupChoices(),
			o.estimator().Estimate(n), o.estimator().ColDistinct(n.Input, n.Key))
		if t.empty() {
			return nil, fmt.Errorf("core: no applicable grouping implementation for %s", n)
		}

	default:
		return nil, fmt.Errorf("core: cannot optimise %T", n)
	}
	return t.table(), nil
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
	rows := o.estimator().Estimate(n)
	offer := func(v variant, rel *storage.Relation, av string, enc storage.Encoding, cost float64) {
		t.offer(v, o.scanPropsOf(rel).key, cost, func(p *Plan) { o.scanPlan(p, n, rel, av, enc, cost) })
	}
	offer(ordinary, n.Rel, "", storage.EncNone, o.mode.Model.Scan(rows))
	if o.mode.Scans != nil {
		for _, v := range o.mode.Scans.ScanVariants(n.Table) {
			if t.considers(avScan, o.scanPropsOf(v.Rel).set) {
				offer(avScan, v.Rel, v.Label, storage.EncNone, o.mode.Model.Scan(rows))
			}
		}
	}
	if o.mode.Depth == physio.Deep {
		if enc := relCompression(n.Rel); enc != storage.EncNone {
			offer(ordinary, n.Rel, "", enc, o.mode.Model.ScanCompressed(rows))
		}
	}
}

// enumFilter offers t the filter n over each of children, emitting rows:
// serially and, over a streaming-segment child, as the parallel twin fanned
// across a morsel pipe; then with the serial twins, for a range filter
// directly over a base scan, as the cracked index (only the qualifying
// pieces, cracking amortised to ~zero; piece order, so no order) and, at deep
// enumeration, as the direct-on-compressed filter (zone maps answer whole
// segments, RLE runs decide once, packed segments compare in delta space;
// ascending gather, so the decoded filter's properties; priced from the exact
// zone-map census), both over the bare scan the consumer plans
// (site.scanBase).
func (o *optimizer) enumFilter(t *site, n *logical.Filter, children []*Plan, rows float64, twins twinSet) {
	for _, c := range children {
		if twins&serialTwins != 0 {
			serial := c.Cost + o.mode.Model.Filter(c.Rows)
			t.offer(ordinary, c.key, serial, func(p *Plan) { filterPlan(p, n, c, 0, rows, serial) })
		}
		if dop := o.mode.dop(); dop > 1 && twins&parallelTwins != 0 && isStreamSegment(c) {
			parallel := c.Cost + o.mode.Model.Parallel(o.mode.Model.Filter(c.Rows), dop)
			t.offer(ordinary, c.key, parallel, func(p *Plan) { filterPlan(p, n, c, dop, rows, parallel) })
		}
	}
	if twins&serialTwins == 0 {
		return
	}
	scan, isScan := n.Input.(*logical.Scan)
	col, lo, hi, isRange := predRange(n.Pred)
	if isScan && isRange && o.mode.CrackedIdx != nil {
		if idx, have := o.mode.CrackedIdx.Cracked(scan.Table, col); have && t.considers(cracked, props.Set{}) {
			base := t.scanBase(scan, storage.EncNone)
			out := t.keyed(base.Props.DropOrder())
			cost := base.Cost + o.mode.Model.Filter(rows)
			t.offer(cracked, out.key, cost, func(p *Plan) {
				filterPlan(p, n, base, 0, rows, cost)
				p.AV, p.Crack, p.CrackLo, p.CrackHi, p.Props = idx.Label(), idx, lo, hi, out.set
			})
		}
	}
	if isScan && isRange && o.mode.Depth == physio.Deep {
		if plo, phi, ok := encBounds(lo, hi); ok {
			enc, skipped, total, work, ok := encFilterTarget(scan.Rel, col, plo, phi)
			if ok && t.considers(encoded, props.Set{}) {
				base := t.scanBase(scan, enc)
				cost := base.Cost + o.mode.Model.FilterCompressed(base.Rows, float64(work), rows)
				t.offer(encoded, t.keyed(base.Props).key, cost, func(p *Plan) {
					filterPlan(p, n, base, 0, rows, cost)
					p.Enc, p.EncCol, p.EncLo, p.EncHi, p.SegsSkipped, p.SegsTotal = enc, col, plo, phi, skipped, total
				})
			}
		}
	}
}

// joinOutProps derives the output properties of a join of the given kind,
// restricted to what the mode tracks. Optimisers that do not look below the
// operator boundary are not told that probe-major joins preserve the probe
// side's order (classical assumption: hash joins destroy order; only the
// order-based family preserves it). The result depends on the kind only
// through joinSorted.
func (o *optimizer) joinOutProps(kind physical.JoinKind, build, probe props.Set, buildKey, probeKey string) props.Set {
	out := kind.OutputProps(build, probe, buildKey, probeKey)
	if !o.mode.TrackProbeOrder && !kind.KeyOrdered() {
		out.SortedBy, out.GroupedBy = nil, nil // fresh and unshared: no copy to defend
	}
	return o.restrict(out)
}

// joinSorted reports whether joinOutProps of kind over this probe side is in
// key order: the kind's own rule (physical.JoinKind.SortsOutput), where the
// mode tracks probe order or the kind is key-ordered. Kinds that agree derive
// the same output vector from one pair of inputs.
func (o *optimizer) joinSorted(kind physical.JoinKind, probe props.Set, probeKey string) bool {
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
// deep DOP > 1, as its parallel twin (identical output, so identical
// properties; only the cost differs) — one property vector for all of them.
// A user sort of input already sorted on key is a no-op, kept for plan-shape
// fidelity at zero cost; it has no parallel twin. A user sort is a breaker
// site under the memory budget; enforcers are candidates for the operator
// above and are pruned there. Sorts spill at any sort kind, serially: stable
// runs merge into the stable full sort.
func (o *optimizer) enumSort(t *site, c *Plan, key string, enforcer bool, kinds []sortx.Kind, twins twinSet) {
	fit := o.fits(c)
	if !enforcer && c.Props.SortedOn(key) {
		if twins&serialTwins != 0 {
			t.offerBreaker(c.key, c.Cost, sortMem(c, false), twinRank(true, fit), func(p *Plan) {
				sortPlan(p, c, key, sortx.Radix, 0, false, c.Props, c.Cost)
			})
		}
		return
	}
	out := t.keyed(c.Props.AfterSortBy(key))
	offer := func(sk sortx.Kind, dop int, cost float64) {
		build := func(p *Plan) { sortPlan(p, c, key, sk, dop, enforcer, out.set, cost) }
		if enforcer {
			t.offer(ordinary, out.key, cost, build)
		} else {
			t.offerBreaker(out.key, cost, sortMem(c, dop > 1), twinRank(dop <= 1, fit), build)
		}
	}
	dop := o.mode.dop()
	for _, sk := range kinds {
		serial := o.mode.Model.SortBy(c.Rows, sk)
		if twins&serialTwins != 0 {
			offer(sk, 0, c.Cost+serial)
		}
		if dop > 1 && twins&parallelTwins != 0 {
			offer(sk, dop, c.Cost+o.mode.Model.Parallel(serial, dop))
		}
	}
}

// withEnforcers returns the candidate input plans for an operator that
// might want its input sorted by key: the originals plus, for each plan not
// already sorted on key, sort-enforced variants.
func (o *optimizer) withEnforcers(plans []*Plan, key string) []*Plan {
	// The originals come from a finished table: one vector each.
	t := site{o: o, plans: append(make([]*Plan, 0, 2*len(plans)), plans...)}
	for _, p := range plans {
		if !p.Props.SortedOn(key) {
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
	lefts, rights []*Plan
	swaps         []bool // the orientations: false builds on the left input
	choices       []physio.JoinChoice
	rows          float64    // estimated output rows
	distinct      [2]float64 // distinct join keys of the left and of the right input
	indexed       bool       // also offer the AV-backed joins (indexedJoins)
}

// enumJoin offers t the implementations of in.n over every pair of its
// input plans, in each of in.swaps — join commutativity: the same choices
// with build and probe roles exchanged; requirements and costs are evaluated
// with the right input as the build side, the output schema is unchanged.
// Only the serial hash join has a disk-backed twin (grace partitioning).
func (o *optimizer) enumJoin(t *site, in *joinIn) {
	n, rows := in.n, in.rows
	for _, lp := range in.lefts {
		for _, rp := range in.rights {
			fit := o.fits(lp, rp)
			for _, swapped := range in.swaps {
				build, probe, buildKey, probeKey, distinct := lp, rp, n.LeftKey, n.RightKey, in.distinct[0]
				if swapped {
					build, probe, buildKey, probeKey, distinct = rp, lp, n.RightKey, n.LeftKey, in.distinct[1]
				}
				// One output vector per output order: key-ordered (the
				// order-based family, and probe-major over a probe side
				// sorted on its key) or not.
				var sorted, unsorted outProps
				for i := range in.choices {
					ch := in.choices[i]
					if !ch.Kind.Admits(build.Props, probe.Props, buildKey, probeKey) {
						continue
					}
					out := &unsorted
					if o.joinSorted(ch.Kind, probe.Props, probeKey) {
						out = &sorted
					}
					if !out.ok {
						*out = t.keyed(o.joinOutProps(ch.Kind, build.Props, probe.Props, buildKey, probeKey))
					}
					total := lp.Cost + rp.Cost + o.mode.Model.Join(ch, build.Rows, probe.Rows, distinct)
					mem := joinMem(lp, rp, rows, cost.MemJoin(ch, build.Rows, probe.Rows, distinct, rows))
					spillable := ch.Kind == physical.HJ && ch.Opt.Parallel <= 1
					t.offerBreaker(out.key, total, mem, twinRank(spillable, fit), func(p *Plan) {
						joinPlan(p, lp, rp, n.LeftKey, n.RightKey, ch, swapped, out.set, rows, total, mem)
					})
				}
			}
		}
	}
	if in.indexed {
		o.indexedJoins(t, n, in.lefts, in.rights, rows)
	}
}

// indexedJoins offers t the AV-backed alternatives of join n: for either
// input that is the bare base scan of a table with a prebuilt index on its
// join key, the build phase was paid offline (or by an earlier execution
// whose table was adopted), so the join is that index probed with the other
// input — one alternative per candidate plan of the other input, charged the
// probe only and holding no build working set. An index under the right
// input is the commuted join: probe with the left, output in the left's
// order. The consumer plans the indexed table's bare scan.
func (o *optimizer) indexedJoins(t *site, n *logical.Join, lefts, rights []*Plan, rows float64) {
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
		distinct := o.estimator().ColDistinct(scan, buildKey)
		ch := physio.JoinChoice{Kind: physical.HJ, Opt: physical.JoinOptions{Hash: idx.Hash()}}
		if idx.SPH() {
			ch.Kind = physical.SPHJ
		}
		for _, pp := range probes {
			lp, rp := base, pp
			if swapped {
				lp, rp = pp, base
			}
			out := t.keyed(o.joinOutProps(ch.Kind, base.Props, pp.Props, buildKey, probeKey))
			total := base.Cost + pp.Cost + o.mode.Model.Join(ch, 0, pp.Rows, distinct)
			mem := joinMem(lp, rp, rows, cost.MemJoin(ch, 0, pp.Rows, distinct, rows))
			t.offerBreaker(out.key, total, mem, noTwin, func(p *Plan) {
				joinPlan(p, lp, rp, n.LeftKey, n.RightKey, ch, swapped, out.set, rows, total, mem)
				p.AV, p.Index = idx.Label(), idx
			})
		}
	}
}

// groupChoices returns the grouping implementations of the mode's (depth, DOP).
func (o *optimizer) groupChoices() []physio.GroupChoice {
	return physio.GroupChoices(o.mode.Depth, o.mode.dop())
}

// enumGroup offers t the groupings of each of children on key into an
// estimated rows output rows of groups distinct keys, as every choice the
// child admits. Only the serial hash aggregation has a disk-backed twin: its
// first-seen iteration order is partition-recomposable.
func (o *optimizer) enumGroup(t *site, key string, aggs []expr.AggSpec, children []*Plan, choices []physio.GroupChoice, rows, groups float64) {
	width := groupWidth(aggs)
	for _, c := range children {
		fit := o.fits(c)
		// One output vector per output order (physical.GroupKind.SortsOutput):
		// sorted on key, or only grouped on it.
		var sorted, grouped outProps
		for i := range choices {
			ch := choices[i]
			if !ch.Kind.Admits(c.Props, key) {
				continue
			}
			out := &grouped
			if ch.Kind.SortsOutput(c.Props, key) {
				out = &sorted
			}
			if !out.ok {
				*out = t.keyed(o.restrict(ch.Kind.OutputProps(c.Props, key)))
			}
			total := c.Cost + o.mode.Model.Group(ch, c.Rows, groups)
			mem := groupMem(c, rows, width, cost.MemGroup(ch, c.Rows, groups))
			spillable := ch.Kind == physical.HG && ch.Opt.Parallel <= 1
			t.offerBreaker(out.key, total, mem, twinRank(spillable, fit), func(p *Plan) {
				groupPlan(p, c, key, aggs, ch, out.set, rows, total, mem)
			})
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
