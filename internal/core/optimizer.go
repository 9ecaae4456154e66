package core

import (
	"fmt"
	"math"
	"time"

	"dqo/internal/cost"
	"dqo/internal/expr"
	"dqo/internal/feedback"
	"dqo/internal/hashtable"
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
	var rec func(p *Plan)
	rec = func(p *Plan) {
		if tree := p.GranuleTree(); tree != nil {
			total += tree.Physicality()
			n++
		}
		for _, c := range p.Children {
			rec(c)
		}
	}
	rec(r.Best)
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
	// Close the estimate→measure loop: resolve the cost model through the
	// mode's feedback store. Tune is idempotent and an empty store is
	// neutral, so feedback-free planning is untouched.
	if mode.Feedback != nil {
		mode.Model = feedback.Tune(mode.Model, mode.Feedback)
	}
	start := time.Now()
	o := &optimizer{mode: mode}
	if mode.Greedy {
		best, err := o.greedy(n, "")
		if err != nil {
			return nil, err
		}
		o.stats.Duration = time.Since(start)
		o.stats.Kept = 1
		return &Result{Best: best, Mode: mode, Stats: o.stats}, nil
	}
	plans, err := o.optimize(n)
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
	// revisit subtree cardinalities per enumeration site. It is also where
	// measured-cardinality feedback enters: with a feedback store on the
	// mode, previously-seen filter/join/group shapes estimate at their
	// measured cardinality.
	est *logical.Estimator
}

// estimator returns the run-shared memoised estimator, creating it on first
// use (hint-aware when the mode carries a feedback store).
func (o *optimizer) estimator() *logical.Estimator {
	if o.est == nil {
		if o.mode.Feedback != nil {
			o.est = logical.NewEstimatorHints(o.mode.Feedback)
		} else {
			o.est = logical.NewEstimator()
		}
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

// spillableSort, spillableJoin and spillableGroup report whether a breaker
// alternative has a disk-backed twin: the serial kernels whose emission order
// partitioned or merged execution reproduces exactly (see the internal/exec
// spill operators). Sorts spill at any sort kind (stable runs merge into the
// stable full sort); joins only as the serial non-AV hash join (grace
// partitioning); groupings only as the serial chained-scheme hash aggregation
// (first-seen iteration order is partition-recomposable).
func spillableSort(dop int) bool { return dop <= 1 }

func spillableJoin(ch physio.JoinChoice, indexed bool) bool {
	return ch.Kind == physical.HJ && !indexed && ch.Opt.Parallel <= 1
}

func spillableGroup(ch physio.GroupChoice) bool {
	return ch.Kind == physical.HG && ch.Opt.Parallel <= 1 && ch.Opt.Scheme == hashtable.Chained
}

// spillCompatible is the same question asked of a built plan node.
func spillCompatible(p *Plan) bool {
	switch p.Op {
	case OpSort:
		return spillableSort(p.DOP)
	case OpJoin:
		return spillableJoin(p.Join, p.AV != "" || p.Index != nil)
	case OpGroup:
		return spillableGroup(p.Group)
	default:
		return false
	}
}

// MarkSpillTwins rewrites every spill-compatible breaker of an optimised
// plan into its disk-backed twin in place, returning how many nodes were
// marked. Differential tests and benchmarks use it to force the spill
// kernels onto the disk path for plans that would never be memory-starved,
// so the byte-identity proof covers the whole corpus, not just the rare
// over-budget site.
func MarkSpillTwins(p *Plan) int {
	n := 0
	if spillCompatible(p) {
		p.Spill = true
		p.DOP = 0
		n++
	}
	for _, c := range p.Children {
		n += MarkSpillTwins(c)
	}
	return n
}

// restrict hides the properties the mode does not track — the SQO/DQO
// delta. SQO keeps sortedness (and what follows from it) but is blind to
// density: its property vector simply never contains a dense domain, so
// SPH-based alternatives are unreachable.
//
// Sets are immutable once built, so a set with nothing dense is returned
// as-is and otherwise only the domain map is copied.
func (o *optimizer) restrict(s props.Set) props.Set {
	if o.mode.TrackDensity {
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
		case p.Op == OpFilter && p.Crack == nil && p.Enc == props.NoCompression,
			p.Op == OpProject:
			p = p.Children[0]
		default:
			return false
		}
	}
}

// scanPlan builds one way of reading n's table: the stored relation, an AV
// variant of it, or (enc set) its compressed-scan twin.
func (o *optimizer) scanPlan(n *logical.Scan, rel *storage.Relation, av string, enc props.Compression, cost float64) *Plan {
	p := &Plan{
		Op: OpScan, Table: n.Table, Rel: rel, AV: av, Enc: enc,
		Props: o.scanPropsOf(rel).set,
		Rows:  o.estimator().Estimate(n),
		Cost:  cost,
	}
	setFootprint(p)
	return p
}

// baseScan plans the bare scan beneath an AV-backed filter or join.
func (o *optimizer) baseScan(n *logical.Scan) *Plan {
	return o.scanPlan(n, n.Rel, "", props.NoCompression, o.mode.Model.Scan(o.estimator().Estimate(n)))
}

// filterPlan builds the filter of c by n's predicate, as a stage of a
// dop-wide morsel pipe when dop > 1. Filtering preserves order, clustering,
// correlations, and domains-as-bounds (a filtered dense domain stays
// SPH-addressable; it is merely no longer minimal). The pipe re-emits morsels
// in input order, so the parallel variant's properties are the serial
// filter's — parallelism is purely a cost trade the model prices with its
// Parallel term.
func filterPlan(n *logical.Filter, c *Plan, dop int, rows, cost float64) *Plan {
	p := &Plan{
		Op: OpFilter, Children: []*Plan{c}, Pred: n.Pred, DOP: dop,
		Props: c.Props,
		Rows:  rows,
		Cost:  cost,
	}
	setFootprint(p)
	return p
}

// crackedFilter returns the adaptive-index alternative of filter n, nil when
// it has none: a range filter directly over a base scan can be answered by
// the cracked index, touching only qualifying pieces (cracking cost amortises
// to ~zero over a workload). The crack emits rows in piece order, so order
// knowledge is lost. scanPlan plans the subsumed scan the calling tier's way.
func (o *optimizer) crackedFilter(n *logical.Filter, rows float64, scanPlan func(*logical.Scan) *Plan) *Plan {
	scan, isScan := n.Input.(*logical.Scan)
	if o.mode.CrackedIdx == nil || !isScan {
		return nil
	}
	col, lo, hi, ok := predRange(n.Pred)
	if !ok {
		return nil
	}
	idx, have := o.mode.CrackedIdx.Cracked(scan.Table, col)
	if !have {
		return nil
	}
	base := scanPlan(scan)
	o.stats.Alternatives++
	p := &Plan{
		Op: OpFilter, Children: []*Plan{base}, Pred: n.Pred,
		AV: idx.Label(), Crack: idx, CrackLo: lo, CrackHi: hi,
		Props: base.Props.DropOrder(),
		Rows:  rows,
		Cost:  base.Cost + o.mode.Model.Filter(rows),
	}
	setFootprint(p)
	return p
}

// encFilter returns the direct-on-compressed alternative of filter n, nil
// when it has none: a range predicate over a base scan of an encoded column
// runs on the compressed payload itself — zone maps answer whole segments,
// RLE runs decide once per run, packed segments compare in delta space — and
// only qualifying rows are gathered (ascending, so output order and hence
// properties match the decoded filter exactly). The cost model sees the exact
// zone-map census: segments skipped and the encoded units left to compare.
// scanPlan plans the subsumed scan, given the column's encoding.
func (o *optimizer) encFilter(n *logical.Filter, rows float64, scanPlan func(*logical.Scan, props.Compression) *Plan) *Plan {
	scan, isScan := n.Input.(*logical.Scan)
	if !isScan {
		return nil
	}
	col, lo, hi, ok := predRange(n.Pred)
	if !ok {
		return nil
	}
	plo, phi, ok := encBounds(lo, hi)
	if !ok {
		return nil
	}
	enc, skipped, total, work, ok := encFilterTarget(scan.Rel, col, plo, phi)
	if !ok {
		return nil
	}
	base := scanPlan(scan, enc)
	o.stats.Alternatives++
	p := &Plan{
		Op: OpFilter, Children: []*Plan{base}, Pred: n.Pred,
		Enc: enc, EncCol: col, EncLo: plo, EncHi: phi,
		SegsSkipped: skipped, SegsTotal: total,
		Props: base.Props,
		Rows:  rows,
		Cost:  base.Cost + o.mode.Model.FilterCompressed(base.Rows, float64(work), rows, enc),
	}
	setFootprint(p)
	return p
}

// projectPlan builds the projection of c onto cols. Projection is zero-cost;
// it inherits the child's pipe membership so a project above a parallel
// filter stays inside the same morsel pipe.
func projectPlan(c *Plan, cols []string, out props.Set) *Plan {
	dop := 0
	if c.Op == OpFilter || c.Op == OpProject {
		dop = c.DOP
	}
	p := &Plan{
		Op: OpProject, Children: []*Plan{c}, Cols: cols, DOP: dop,
		Props: out,
		Rows:  c.Rows,
		Cost:  c.Cost,
	}
	setFootprint(p)
	return p
}

// sortPlan builds the sort of child by key (a user sort, or an enforcer the
// optimiser inserts) with the given algorithm, at dop > 1 as per-worker
// sorted runs + k-way merge. out is child's vector after the sort.
func sortPlan(child *Plan, key string, sk sortx.Kind, dop int, enforcer bool, out props.Set, cost float64) *Plan {
	p := &Plan{
		Op: OpSort, Children: []*Plan{child},
		SortKey: key, SortKind: sk, Enforcer: enforcer, DOP: dop,
		Props: out,
		Rows:  child.Rows,
		Cost:  cost,
	}
	setFootprint(p)
	return p
}

// joinPlan builds the join of lp and rp on leftKey = rightKey as choice ch,
// commuted (build on the right input, probe with the left) when swapped.
func joinPlan(lp, rp *Plan, leftKey, rightKey string, ch physio.JoinChoice, swapped bool, out props.Set, rows, cost, mem float64) *Plan {
	build, buildKey := lp, leftKey
	if swapped {
		build, buildKey = rp, rightKey
	}
	return &Plan{
		Op: OpJoin, Children: []*Plan{lp, rp},
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
func groupPlan(c *Plan, key string, aggs []expr.AggSpec, ch physio.GroupChoice, out props.Set, rows, cost, mem float64) *Plan {
	return &Plan{
		Op: OpGroup, Children: []*Plan{c},
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
		rows := o.estimator().Estimate(n)
		offer := func(rel *storage.Relation, av string, enc props.Compression, cost float64) {
			o.stats.Alternatives++
			t.offer(o.scanPropsOf(rel).key, cost, func() *Plan { return o.scanPlan(n, rel, av, enc, cost) })
		}
		offer(n.Rel, "", props.NoCompression, o.mode.Model.Scan(rows))
		if o.mode.Scans != nil {
			// Algorithmic-View access paths: materialised variants of the
			// table (e.g. sorted projections) start the plan from different
			// physical properties at plain scan cost.
			for _, v := range o.mode.Scans.ScanVariants(n.Table) {
				offer(v.Rel, v.Label, props.NoCompression, o.mode.Model.Scan(rows))
			}
		}
		// Compressed-scan granule twin: decode every segment once and stream
		// plain morsels, instead of per-morsel lazy views of the encoded
		// payload. Identical output and properties, so it competes purely on
		// cost — models blind to storage format (Paper) price it as an exact
		// tie, which the first-enumerated plain scan wins. Deep-only: shallow
		// enumeration stays at the classical operator boundary.
		if o.mode.Depth == physio.Deep {
			if enc := relCompression(n.Rel); enc != props.NoCompression {
				offer(n.Rel, "", enc, o.mode.Model.ScanCompressed(rows, enc))
			}
		}

	case *logical.Filter:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		rows := o.estimator().Estimate(n)
		for _, c := range children {
			o.stats.Alternatives++
			filter := o.mode.Model.Filter(c.Rows)
			serial := c.Cost + filter
			t.offer(c.key, serial, func() *Plan { return filterPlan(n, c, 0, rows, serial) })
			// Parallel variant: fan the streaming segment below across a
			// morsel pipe.
			if dop := o.mode.dop(); dop > 1 && isStreamSegment(c) {
				o.stats.Alternatives++
				parallel := c.Cost + o.mode.Model.Parallel(filter, dop)
				t.offer(c.key, parallel, func() *Plan { return filterPlan(n, c, dop, rows, parallel) })
			}
		}
		// The AV-backed and the direct-on-compressed alternative are at most
		// one each per site and come built.
		if p := o.crackedFilter(n, rows, o.baseScan); p != nil {
			t.offer(p.Props.Key(), p.Cost, func() *Plan { return p })
		}
		// Deep-only, like the compressed-scan twin it reads: the kernel works
		// on the encoded payload, so the subsumed base scan is priced (and
		// displayed) as that twin.
		if o.mode.Depth == physio.Deep {
			twin := func(scan *logical.Scan, enc props.Compression) *Plan {
				return o.scanPlan(scan, scan.Rel, "", relCompression(scan.Rel), o.mode.Model.ScanCompressed(o.estimator().Estimate(scan), enc))
			}
			if p := o.encFilter(n, rows, twin); p != nil {
				t.offer(p.Props.Key(), p.Cost, func() *Plan { return p })
			}
		}

	case *logical.Project:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		for _, c := range children {
			o.stats.Alternatives++
			out := keyed(c.Props.Project(n.Cols...))
			t.offer(out.key, c.Cost, func() *Plan { return projectPlan(c, n.Cols, out.set) })
		}

	case *logical.Sort:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		for _, c := range children {
			if !c.Props.SortedOn(n.Key) {
				o.offerSorts(&t, c, n.Key, false)
				continue
			}
			// Already sorted: the sort is a no-op; keep the child as-is
			// wrapped for plan-shape fidelity at zero cost.
			o.stats.Alternatives++
			t.offerBreaker(c.key, c.Cost, sortMem(c, false), twinRank(spillableSort(0), o.fits(c)), func() *Plan {
				return sortPlan(c, n.Key, sortx.Radix, 0, false, c.Props, c.Cost)
			})
		}

	case *logical.Join:
		if err := o.offerJoins(&t, n); err != nil {
			return nil, err
		}

	case *logical.GroupBy:
		if err := o.offerGroups(&t, n); err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("core: cannot optimise %T", n)
	}
	return t.table(), nil
}

// joinOutProps derives the output properties of a join of the given kind,
// restricted to what the mode tracks. Optimisers that do not look below the
// operator boundary are not told that probe-major joins preserve the probe
// side's order (classical assumption: hash joins destroy order; only the
// order-based family preserves it). The result depends on the kind only
// through its family (physical.JoinKind.KeyOrdered).
func (o *optimizer) joinOutProps(kind physical.JoinKind, build, probe props.Set, buildKey, probeKey string) props.Set {
	out := kind.OutputProps(build, probe, buildKey, probeKey)
	if !o.mode.TrackProbeOrder && !kind.KeyOrdered() {
		out.SortedBy, out.GroupedBy = nil, nil // fresh and unshared: no copy to defend
	}
	return o.restrict(out)
}

// offerSorts offers t every way of sorting child by key: each sort kind,
// serial and, at deep DOP > 1, as its parallel twin (identical output, so
// identical properties; only the cost differs) — one property vector for all
// of them. A user sort is a breaker site under the memory budget; enforcers
// are candidates for the operator above and are pruned there.
func (o *optimizer) offerSorts(t *site, child *Plan, key string, enforcer bool) {
	out := keyed(child.Props.AfterSortBy(key))
	offer := func(sk sortx.Kind, dop int, cost float64) {
		o.stats.Alternatives++
		build := func() *Plan { return sortPlan(child, key, sk, dop, enforcer, out.set, cost) }
		if enforcer {
			t.offer(out.key, cost, build)
		} else {
			t.offerBreaker(out.key, cost, sortMem(child, dop > 1), twinRank(spillableSort(dop), o.fits(child)), build)
		}
	}
	for _, sk := range o.sortKinds() {
		serial := o.mode.Model.SortBy(child.Rows, sk)
		offer(sk, 0, child.Cost+serial)
		if dop := o.mode.dop(); dop > 1 {
			offer(sk, dop, child.Cost+o.mode.Model.Parallel(serial, dop))
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
			o.offerSorts(&t, p, key, true)
		}
	}
	return t.table()
}

// offerJoins offers t the implementations of join n over every pair of its
// inputs' plans, in both orientations.
func (o *optimizer) offerJoins(t *site, n *logical.Join) error {
	lefts, err := o.optimize(n.Left)
	if err != nil {
		return err
	}
	rights, err := o.optimize(n.Right)
	if err != nil {
		return err
	}
	lefts = o.withEnforcers(lefts, n.LeftKey)
	rights = o.withEnforcers(rights, n.RightKey)

	rows := o.estimator().Estimate(n)
	leftDistinct := o.estimator().ColDistinct(n.Left, n.LeftKey)
	rightDistinct := o.estimator().ColDistinct(n.Right, n.RightKey)
	choices := physio.JoinChoices(n.LeftKey, n.RightKey, o.mode.Depth, o.mode.dop())
	for _, lp := range lefts {
		for _, rp := range rights {
			fit := o.fits(lp, rp)
			// Join commutativity: the same choices with build and probe roles
			// exchanged. Requirements and costs are evaluated with the right
			// input as the build side; the output schema is unchanged.
			for _, swapped := range [2]bool{false, true} {
				build, probe, buildKey, probeKey, distinct := lp, rp, n.LeftKey, n.RightKey, leftDistinct
				if swapped {
					build, probe, buildKey, probeKey, distinct = rp, lp, n.RightKey, n.LeftKey, rightDistinct
				}
				// One output vector per algorithm family: probe-major, key-ordered.
				var fams [2]outProps
				for i := range choices {
					ch := choices[i]
					if !ch.Kind.Admits(build.Props, probe.Props, buildKey, probeKey) {
						continue
					}
					o.stats.Alternatives++
					out := &fams[0]
					if ch.Kind.KeyOrdered() {
						out = &fams[1]
					}
					if !out.ok {
						*out = keyed(o.joinOutProps(ch.Kind, build.Props, probe.Props, buildKey, probeKey))
					}
					total := lp.Cost + rp.Cost + o.mode.Model.Join(ch, build.Rows, probe.Rows, distinct)
					mem := joinMem(lp, rp, rows, cost.MemJoin(ch, build.Rows, probe.Rows, distinct, rows))
					t.offerBreaker(out.key, total, mem, twinRank(spillableJoin(ch, false), fit), func() *Plan {
						return joinPlan(lp, rp, n.LeftKey, n.RightKey, ch, swapped, out.set, rows, total, mem)
					})
				}
			}
		}
	}
	o.indexedJoins(n, rows, lefts, rights, o.baseScan, func(p *Plan) {
		t.offerBreaker(p.Props.Key(), p.Cost, p.Mem, noTwin, func() *Plan { return p })
	})
	if t.empty() {
		return fmt.Errorf("core: no applicable join implementation for %s", n)
	}
	return nil
}

// indexedJoins enumerates the AV-backed alternatives of join n, which both
// planning tiers consider: for either input that is the bare base scan of a
// table with a prebuilt index on its join key, the build phase was paid
// offline (or by an earlier execution whose table was adopted), so the join
// is that index probed with the other input — one alternative per candidate
// plan of the other input, charged the probe only and holding no build
// working set. An index under the right input is the commuted join: probe
// with the left, output in the left's order. scanPlan plans the indexed
// table's bare scan the way the calling tier does; the alternatives are few
// and are handed to offer built.
func (o *optimizer) indexedJoins(n *logical.Join, rows float64, lefts, rights []*Plan, scanPlan func(*logical.Scan) *Plan, offer func(*Plan)) {
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
		base := scanPlan(scan)
		distinct := o.estimator().ColDistinct(scan, buildKey)
		ch := physio.JoinChoice{Kind: physical.HJ, Opt: physical.JoinOptions{Hash: idx.Hash()}}
		if idx.SPH() {
			ch.Kind = physical.SPHJ
		}
		for _, pp := range probes {
			o.stats.Alternatives++
			lp, rp := base, pp
			if swapped {
				lp, rp = pp, base
			}
			out := o.joinOutProps(ch.Kind, base.Props, pp.Props, buildKey, probeKey)
			// Build side already materialised: charge the probe only, and no
			// build working set.
			total := base.Cost + pp.Cost + o.mode.Model.Join(ch, 0, pp.Rows, distinct)
			mem := joinMem(lp, rp, rows, cost.MemJoin(ch, 0, pp.Rows, distinct, rows))
			p := joinPlan(lp, rp, n.LeftKey, n.RightKey, ch, swapped, out, rows, total, mem)
			p.AV, p.Index = idx.Label(), idx
			offer(p)
		}
	}
}

// groupChoices returns the grouping implementations a site on key may pick
// from under mode: the (depth, DOP) list, narrowed by the mode's GroupFilter
// when that leaves any.
func groupChoices(mode Mode, key string) []physio.GroupChoice {
	choices := physio.GroupChoices(key, mode.Depth, mode.dop())
	if mode.GroupFilter != nil {
		if filtered := mode.GroupFilter(key, choices); len(filtered) > 0 {
			return filtered
		}
	}
	return choices
}

// offerGroups offers t the implementations of grouping n over every plan of
// its input.
func (o *optimizer) offerGroups(t *site, n *logical.GroupBy) error {
	children, err := o.optimize(n.Input)
	if err != nil {
		return err
	}
	children = o.withEnforcers(children, n.Key)

	groups := o.estimator().ColDistinct(n.Input, n.Key)
	rows := o.estimator().Estimate(n)
	width := groupWidth(n.Aggs)
	choices := groupChoices(o.mode, n.Key)
	for _, c := range children {
		fit := o.fits(c)
		// One output vector per algorithm family.
		var fams [physical.NumGroupKinds]outProps
		for i := range choices {
			ch := choices[i]
			if !ch.Kind.Admits(c.Props, n.Key) {
				continue
			}
			o.stats.Alternatives++
			out := &fams[ch.Kind]
			if !out.ok {
				*out = keyed(o.restrict(ch.Kind.OutputProps(c.Props, n.Key)))
			}
			total := c.Cost + o.mode.Model.Group(ch, c.Rows, groups)
			mem := groupMem(c, rows, width, cost.MemGroup(ch, c.Rows, groups))
			t.offerBreaker(out.key, total, mem, twinRank(spillableGroup(ch), fit), func() *Plan {
				return groupPlan(c, n.Key, n.Aggs, ch, out.set, rows, total, mem)
			})
		}
	}
	if t.empty() {
		return fmt.Errorf("core: no applicable grouping implementation for %s", n)
	}
	return nil
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
