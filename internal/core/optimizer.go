package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dqo/internal/cost"
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
		switch p.Op {
		case OpJoin:
			if p.Join.Tree != nil {
				total += p.Join.Tree.Physicality()
				n++
			}
		case OpGroup:
			if p.Group.Tree != nil {
				total += p.Group.Tree.Physicality()
				n++
			}
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
	scanProps map[*storage.Relation]props.Set
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

// scanPropsOf returns the restricted property set of a stored relation,
// computed once per run. Property sets are immutable once built, so every
// plan over the relation shares the one value.
func (o *optimizer) scanPropsOf(rel *storage.Relation) props.Set {
	if ps, ok := o.scanProps[rel]; ok {
		return ps
	}
	ps := o.restrict(logical.ScanProps(rel))
	if o.scanProps == nil {
		o.scanProps = make(map[*storage.Relation]props.Set, 8)
	}
	o.scanProps[rel] = ps
	return ps
}

// keepPareto retains, per property vector, the cheapest plan, in order of
// first appearance; dropping any plan strictly worse than another whose
// properties subsume it would require a lattice — per-vector pruning is the
// classical compromise and keeps enumeration exact for the requirements we
// check.
func (o *optimizer) keepPareto(plans []*Plan) []*Plan {
	slot := make(map[props.Key]int, len(plans))
	out := make([]*Plan, 0, len(plans))
	for _, p := range plans {
		if !p.keyed {
			p.key, p.keyed = p.Props.Key(), true
		}
		if i, ok := slot[p.key]; !ok {
			slot[p.key] = len(out)
			out = append(out, p)
		} else if p.Cost < out[i].Cost {
			out[i] = p
		}
	}
	return o.beamCap(out)
}

// beamCap truncates a site's DP table to the mode's beam width: the Beam
// cheapest property-distinct plans survive, ties resolved in enumeration
// order (stable sort), so the cap is deterministic. Beam <= 0 returns the
// table untouched — beam-free enumeration stays byte-identical.
func (o *optimizer) beamCap(plans []*Plan) []*Plan {
	if o.mode.Beam <= 0 || len(plans) <= o.mode.Beam {
		return plans
	}
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].Cost < plans[j].Cost })
	return plans[:o.mode.Beam]
}

// setFootprint derives the node's estimated output row width and peak
// resident memory (Plan.Width / Plan.Mem) from its children: breakers
// account their materialised input, kernel working set, and output;
// streaming operators only what their consumer accumulates. Join and group
// nodes compute theirs inline where the distinct counts are at hand.
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
		resident := c.Rows*c.Width + cost.MemSort(c.Rows, p.DOP > 1) + p.Rows*p.Width
		p.Mem = math.Max(c.Mem, resident)
	}
}

// pruneMem drops alternatives whose estimated peak memory exceeds the
// mode's budget; if every alternative exceeds it, a spill-enabled mode
// degrades to the disk-backed twin of the cheapest spill-compatible
// alternative, and otherwise the single smallest survives, so optimisation
// still returns a plan and the runtime budget enforces the limit.
// MemBudget <= 0 returns plans untouched, keeping budget-free enumeration
// byte-identical; so does any site with at least one alternative under the
// budget, keeping fitting plans byte-identical with Spill on or off.
func (o *optimizer) pruneMem(plans []*Plan) []*Plan {
	if o.mode.MemBudget <= 0 || len(plans) == 0 {
		return plans
	}
	budget := float64(o.mode.MemBudget)
	out := make([]*Plan, 0, len(plans))
	minP := plans[0]
	for _, p := range plans {
		if p.Mem < minP.Mem {
			minP = p
		}
		if p.Mem <= budget {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		if o.mode.Spill {
			if twin := o.spillTwin(plans, budget); twin != nil {
				return []*Plan{twin}
			}
		}
		return []*Plan{minP}
	}
	return out
}

// spillCompatible reports whether a breaker alternative has a disk-backed
// twin: the serial kernels whose emission order partitioned or merged
// execution reproduces exactly (see the internal/exec spill operators).
// Sorts spill at any sort kind (stable runs merge into the stable full
// sort); joins only as the serial non-AV hash join (grace partitioning);
// groupings only as the serial chained-scheme hash aggregation (first-seen
// iteration order is partition-recomposable).
func spillCompatible(p *Plan) bool {
	switch p.Op {
	case OpSort:
		return p.DOP <= 1
	case OpJoin:
		return p.Join.Kind == physical.HJ && p.AV == "" && p.Index == nil &&
			p.Join.Opt.Parallel <= 1
	case OpGroup:
		return p.Group.Kind == physical.HG && p.Group.Opt.Parallel <= 1 &&
			p.Group.Opt.Scheme == hashtable.Chained
	default:
		return false
	}
}

// spillTwin builds the disk-backed twin of the cheapest spill-compatible
// alternative at a site where nothing fits the memory budget. Bases whose
// inputs themselves fit the budget are preferred — spilling the breaker
// cannot shrink a child's residency. The twin produces the identical output
// (same property vector), is priced by Model.Spill over the input rows with
// a nominal two disk passes (partition write + read; deeper recursion is
// the skew exception, not the rule), and claims the budget as its peak
// residency — the runtime kernel bounds itself to the spill grant.
func (o *optimizer) spillTwin(plans []*Plan, budget float64) *Plan {
	var base *Plan
	baseFits := false
	for _, p := range plans {
		if !spillCompatible(p) {
			continue
		}
		fits := true
		for _, c := range p.Children {
			if c.Mem > budget {
				fits = false
				break
			}
		}
		switch {
		case base == nil, fits && !baseFits, fits == baseFits && p.Cost < base.Cost:
			base, baseFits = p, fits
		}
	}
	if base == nil {
		return nil
	}
	o.stats.Alternatives++
	var inRows float64
	for _, c := range base.Children {
		inRows += c.Rows
	}
	twin := *base
	twin.Spill = true
	twin.DOP = 0
	twin.Cost = o.mode.Model.Spill(base.Cost, inRows, 2)
	twin.Mem = math.Min(base.Mem, budget)
	return &twin
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

// dop returns the degree of parallelism offered to deep enumeration; shallow
// modes and modes with DOP <= 1 enumerate serial plans only.
func (o *optimizer) dop() int {
	if o.mode.Depth != physio.Deep || o.mode.DOP <= 1 {
		return 1
	}
	return o.mode.DOP
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

func (o *optimizer) optimize(n logical.Node) ([]*Plan, error) {
	switch n := n.(type) {
	case *logical.Scan:
		rows := o.estimator().Estimate(n)
		p := &Plan{
			Op: OpScan, Table: n.Table, Rel: n.Rel,
			Props: o.scanPropsOf(n.Rel),
			Rows:  rows,
		}
		p.Cost = o.mode.Model.Scan(p.Rows)
		setFootprint(p)
		o.stats.Alternatives++
		out := []*Plan{p}
		if o.mode.Scans != nil {
			// Algorithmic-View access paths: materialised variants of the
			// table (e.g. sorted projections) start the plan from different
			// physical properties at plain scan cost.
			for _, v := range o.mode.Scans.ScanVariants(n.Table) {
				vp := &Plan{
					Op: OpScan, Table: n.Table, Rel: v.Rel, AV: v.Label,
					Props: o.scanPropsOf(v.Rel),
					Rows:  rows,
					Cost:  o.mode.Model.Scan(rows),
				}
				setFootprint(vp)
				o.stats.Alternatives++
				out = append(out, vp)
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
				cp := &Plan{
					Op: OpScan, Table: n.Table, Rel: n.Rel, Enc: enc,
					Props: o.scanPropsOf(n.Rel),
					Rows:  rows,
					Cost:  o.mode.Model.ScanCompressed(rows, enc),
				}
				setFootprint(cp)
				o.stats.Alternatives++
				out = append(out, cp)
			}
		}
		return o.keepPareto(out), nil

	case *logical.Filter:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		rows := o.estimator().Estimate(n)
		var out []*Plan
		for _, c := range children {
			p := &Plan{
				Op: OpFilter, Children: []*Plan{c}, Pred: n.Pred,
				// Filtering preserves order, clustering, correlations, and
				// domains-as-bounds (a filtered dense domain stays
				// SPH-addressable; it is merely no longer minimal).
				Props: c.Props,
				Rows:  rows,
				Cost:  c.Cost + o.mode.Model.Filter(c.Rows),
			}
			setFootprint(p)
			o.stats.Alternatives++
			out = append(out, p)
			// Parallel variant: fan the streaming segment below across a
			// morsel pipe. The pipe re-emits morsels in input order, so the
			// properties are identical to the serial filter — parallelism is
			// purely a cost trade the model prices with its Parallel term.
			if dop := o.dop(); dop > 1 && isStreamSegment(c) {
				o.stats.Alternatives++
				pp := &Plan{
					Op: OpFilter, Children: []*Plan{c}, Pred: n.Pred, DOP: dop,
					Props: c.Props,
					Rows:  rows,
					Cost:  c.Cost + o.mode.Model.Parallel(o.mode.Model.Filter(c.Rows), dop),
				}
				setFootprint(pp)
				out = append(out, pp)
			}
		}
		// Adaptive-index AV: a range filter directly over a base scan can be
		// answered by the cracked index, touching only qualifying pieces.
		// The crack emits rows in piece order, so order knowledge is lost.
		if o.mode.CrackedIdx != nil {
			if scan, isScan := n.Input.(*logical.Scan); isScan {
				if col, lo, hi, ok := predRange(n.Pred); ok {
					if idx, have := o.mode.CrackedIdx.Cracked(scan.Table, col); have {
						base := &Plan{
							Op: OpScan, Table: scan.Table, Rel: scan.Rel,
							Props: o.scanPropsOf(scan.Rel),
							Rows:  o.estimator().Estimate(scan),
							Cost:  o.mode.Model.Scan(o.estimator().Estimate(scan)),
						}
						setFootprint(base)
						o.stats.Alternatives++
						cp := &Plan{
							Op: OpFilter, Children: []*Plan{base}, Pred: n.Pred,
							AV: idx.Label(), Crack: idx, CrackLo: lo, CrackHi: hi,
							Props: base.Props.DropOrder(),
							Rows:  rows,
							// Only qualifying rows are touched (cracking
							// cost amortises to ~zero over a workload).
							Cost: base.Cost + o.mode.Model.Filter(rows),
						}
						setFootprint(cp)
						out = append(out, cp)
					}
				}
			}
		}
		// Direct-on-compressed filter granule: a range predicate over a base
		// scan of an encoded column runs on the compressed payload itself —
		// zone maps answer whole segments, RLE runs decide once per run,
		// packed segments compare in delta space — and only qualifying rows
		// are gathered (ascending, so output order and hence properties match
		// the decoded filter exactly). The cost model sees the exact zone-map
		// census: segments skipped and the encoded units left to compare.
		if o.mode.Depth == physio.Deep {
			if scan, isScan := n.Input.(*logical.Scan); isScan {
				if col, lo, hi, ok := predRange(n.Pred); ok {
					if plo, phi, okb := encBounds(lo, hi); okb {
						if enc, skipped, total, work, oke := encFilterTarget(scan.Rel, col, plo, phi); oke {
							scanRows := o.estimator().Estimate(scan)
							// The kernel reads the encoded payload, so the
							// subsumed base scan is priced (and displayed) as
							// its compressed twin.
							base := &Plan{
								Op: OpScan, Table: scan.Table, Rel: scan.Rel,
								Enc:   relCompression(scan.Rel),
								Props: o.scanPropsOf(scan.Rel),
								Rows:  scanRows,
								Cost:  o.mode.Model.ScanCompressed(scanRows, enc),
							}
							setFootprint(base)
							o.stats.Alternatives++
							ep := &Plan{
								Op: OpFilter, Children: []*Plan{base}, Pred: n.Pred,
								Enc: enc, EncCol: col, EncLo: plo, EncHi: phi,
								SegsSkipped: skipped, SegsTotal: total,
								Props: base.Props,
								Rows:  rows,
								Cost:  base.Cost + o.mode.Model.FilterCompressed(scanRows, float64(work), rows, enc),
							}
							setFootprint(ep)
							out = append(out, ep)
						}
					}
				}
			}
		}
		return o.keepPareto(out), nil

	case *logical.Project:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		var out []*Plan
		for _, c := range children {
			dop := 0
			if c.Op == OpFilter || c.Op == OpProject {
				// Projection is zero-cost; it inherits the child's pipe
				// membership so a project above a parallel filter stays
				// inside the same morsel pipe.
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
			out = append(out, p)
		}
		return o.keepPareto(out), nil

	case *logical.Sort:
		children, err := o.optimize(n.Input)
		if err != nil {
			return nil, err
		}
		var out []*Plan
		for _, c := range children {
			if c.Props.SortedOn(n.Key) {
				// Already sorted: the sort is a no-op; keep the child as-is
				// wrapped for plan-shape fidelity at zero cost.
				np := &Plan{
					Op: OpSort, Children: []*Plan{c}, SortKey: n.Key, SortKind: sortx.Radix,
					Props: c.Props, Rows: c.Rows, Cost: c.Cost,
				}
				setFootprint(np)
				out = append(out, np)
				o.stats.Alternatives++
				continue
			}
			for _, sk := range o.sortKinds() {
				out = append(out, o.sortVariants(c, n.Key, sk, false)...)
			}
		}
		return o.keepPareto(o.pruneMem(out)), nil

	case *logical.Join:
		return o.optimizeJoin(n)

	case *logical.GroupBy:
		return o.optimizeGroup(n)

	default:
		return nil, fmt.Errorf("core: cannot optimise %T", n)
	}
}

// joinOutProps derives join output properties, hiding probe-order
// preservation from optimisers that do not look below the operator boundary
// (classical assumption: hash joins destroy order; only the order-based
// family preserves it).
func (o *optimizer) joinOutProps(ch physio.JoinChoice, build, probe props.Set, buildKey, probeKey string) props.Set {
	out := ch.Kind.OutputProps(build, probe, buildKey, probeKey)
	if !o.mode.TrackProbeOrder {
		switch ch.Kind {
		case physical.HJ, physical.SPHJ, physical.BSJ:
			out = out.DropOrder()
		}
	}
	return out
}

// sortPlan wraps child in a sort by key (enforcer or user sort).
func (o *optimizer) sortPlan(child *Plan, key string, sk sortx.Kind, enforcer bool) *Plan {
	o.stats.Alternatives++
	p := &Plan{
		Op: OpSort, Children: []*Plan{child},
		SortKey: key, SortKind: sk, Enforcer: enforcer,
		Props: child.Props.AfterSortBy(key),
		Rows:  child.Rows,
		Cost:  child.Cost + o.mode.Model.SortBy(child.Rows, sk),
	}
	setFootprint(p)
	return p
}

// sortVariants enumerates the serial sort plus, at deep DOP > 1, its
// parallel twin (per-worker sorted runs + k-way merge — identical output, so
// identical properties; only the cost differs).
func (o *optimizer) sortVariants(child *Plan, key string, sk sortx.Kind, enforcer bool) []*Plan {
	out := []*Plan{o.sortPlan(child, key, sk, enforcer)}
	if dop := o.dop(); dop > 1 {
		o.stats.Alternatives++
		pp := &Plan{
			Op: OpSort, Children: []*Plan{child},
			SortKey: key, SortKind: sk, Enforcer: enforcer, DOP: dop,
			Props: child.Props.AfterSortBy(key),
			Rows:  child.Rows,
			Cost:  child.Cost + o.mode.Model.Parallel(o.mode.Model.SortBy(child.Rows, sk), dop),
		}
		setFootprint(pp)
		out = append(out, pp)
	}
	return out
}

// withEnforcers returns the candidate input plans for an operator that
// might want its input sorted by key: the originals plus, for each plan not
// already sorted on key, sort-enforced variants.
func (o *optimizer) withEnforcers(plans []*Plan, key string) []*Plan {
	out := append([]*Plan(nil), plans...)
	for _, p := range plans {
		if p.Props.SortedOn(key) {
			continue
		}
		for _, sk := range o.sortKinds() {
			out = append(out, o.sortVariants(p, key, sk, true)...)
		}
	}
	return o.keepPareto(out)
}

func (o *optimizer) optimizeJoin(n *logical.Join) ([]*Plan, error) {
	lefts, err := o.optimize(n.Left)
	if err != nil {
		return nil, err
	}
	rights, err := o.optimize(n.Right)
	if err != nil {
		return nil, err
	}
	lefts = o.withEnforcers(lefts, n.LeftKey)
	rights = o.withEnforcers(rights, n.RightKey)

	rows := o.estimator().Estimate(n)
	keyDistinct := o.estimator().ColDistinct(n.Left, n.LeftKey)
	rightDistinct := o.estimator().ColDistinct(n.Right, n.RightKey)
	choices := physio.JoinChoices(n.LeftKey, n.RightKey, o.mode.Depth, o.dop())
	// Join commutativity: the same algorithm families with build and probe
	// roles exchanged. Requirements and costs are evaluated with the right
	// input as the build side; the output schema is unchanged.
	swapChoices := physio.JoinChoices(n.RightKey, n.LeftKey, o.mode.Depth, o.dop())

	var out []*Plan
	for _, lp := range lefts {
		for _, rp := range rights {
			for i := range choices {
				ch := choices[i]
				if !lp.Props.SatisfiesAll(ch.LeftReqs) || !rp.Props.SatisfiesAll(ch.RightReqs) {
					continue
				}
				o.stats.Alternatives++
				outProps := o.joinOutProps(ch, lp.Props, rp.Props, n.LeftKey, n.RightKey)
				p := &Plan{
					Op: OpJoin, Children: []*Plan{lp, rp},
					Join: ch, LeftKey: n.LeftKey, RightKey: n.RightKey,
					DOP:    ch.Opt.Parallel,
					KeyDom: lp.Props.Domain(n.LeftKey),
					Props:  o.restrict(outProps),
					Rows:   rows,
					Cost:   lp.Cost + rp.Cost + o.mode.Model.Join(ch, lp.Rows, rp.Rows, keyDistinct),
				}
				setJoinFootprint(p, lp, rp, cost.MemJoin(ch, lp.Rows, rp.Rows, keyDistinct, rows))
				out = append(out, p)
			}
			for i := range swapChoices {
				ch := swapChoices[i]
				if !rp.Props.SatisfiesAll(ch.LeftReqs) || !lp.Props.SatisfiesAll(ch.RightReqs) {
					continue
				}
				o.stats.Alternatives++
				outProps := o.joinOutProps(ch, rp.Props, lp.Props, n.RightKey, n.LeftKey)
				p := &Plan{
					Op: OpJoin, Children: []*Plan{lp, rp},
					Join: ch, LeftKey: n.LeftKey, RightKey: n.RightKey, Swapped: true,
					DOP:    ch.Opt.Parallel,
					KeyDom: rp.Props.Domain(n.RightKey),
					Props:  o.restrict(outProps),
					Rows:   rows,
					Cost:   lp.Cost + rp.Cost + o.mode.Model.Join(ch, rp.Rows, lp.Rows, rightDistinct),
				}
				setJoinFootprint(p, lp, rp, cost.MemJoin(ch, rp.Rows, lp.Rows, rightDistinct, rows))
				out = append(out, p)
			}
		}
	}
	out = append(out, o.indexedJoins(n, rows, lefts, rights, func(scan *logical.Scan) *Plan {
		base := &Plan{
			Op: OpScan, Table: scan.Table, Rel: scan.Rel,
			Props: o.scanPropsOf(scan.Rel),
			Rows:  o.estimator().Estimate(scan),
			Cost:  o.mode.Model.Scan(o.estimator().Estimate(scan)),
		}
		setFootprint(base)
		return base
	})...)
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no applicable join implementation for %s", n)
	}
	return o.keepPareto(o.pruneMem(out)), nil
}

// indexedJoins enumerates the AV-backed alternatives of join n, which both
// planning tiers consider: for either input that is the bare base scan of a
// table with a prebuilt index on its join key, the build phase was paid
// offline (or by an earlier execution whose table was adopted), so the join
// is that index probed with the other input — one alternative per candidate
// plan of the other input, charged the probe only and holding no build
// working set. An index under the right input is the commuted join: probe
// with the left, output in the left's order. scanPlan plans the indexed
// table's bare scan the way the calling tier does.
func (o *optimizer) indexedJoins(n *logical.Join, rows float64, lefts, rights []*Plan, scanPlan func(*logical.Scan) *Plan) []*Plan {
	if o.mode.Indexes == nil {
		return nil
	}
	var out []*Plan
	for _, swapped := range []bool{false, true} {
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
		kind := physical.HJ
		if idx.SPH() {
			kind = physical.SPHJ
		}
		opt := physical.JoinOptions{Hash: idx.Hash()}
		ch := physio.JoinChoice{Kind: kind, Opt: opt, Tree: physio.JoinTree(kind, opt, buildKey, probeKey)}
		for _, pp := range probes {
			o.stats.Alternatives++
			lp, rp := base, pp
			if swapped {
				lp, rp = pp, base
			}
			ap := &Plan{
				Op: OpJoin, Children: []*Plan{lp, rp},
				Join: ch, LeftKey: n.LeftKey, RightKey: n.RightKey, Swapped: swapped,
				AV: idx.Label(), Index: idx,
				KeyDom: base.Props.Domain(buildKey),
				Props:  o.restrict(o.joinOutProps(ch, base.Props, pp.Props, buildKey, probeKey)),
				Rows:   rows,
				// Build side already materialised: charge probe only.
				Cost: base.Cost + pp.Cost + o.mode.Model.Join(ch, 0, pp.Rows, distinct),
			}
			// Build side prepaid: no build working set.
			setJoinFootprint(ap, lp, rp, cost.MemJoin(ch, 0, pp.Rows, distinct, rows))
			out = append(out, ap)
		}
	}
	return out
}

// setJoinFootprint fills Width/Mem for a join alternative: both inputs
// materialised, the kernel's working set, and the emitted pair-gathered
// output resident at once.
func setJoinFootprint(p, lp, rp *Plan, work float64) {
	p.Width = lp.Width + rp.Width
	resident := lp.Rows*lp.Width + rp.Rows*rp.Width + work + p.Rows*p.Width
	p.Mem = math.Max(math.Max(lp.Mem, rp.Mem), resident)
}

func (o *optimizer) optimizeGroup(n *logical.GroupBy) ([]*Plan, error) {
	children, err := o.optimize(n.Input)
	if err != nil {
		return nil, err
	}
	children = o.withEnforcers(children, n.Key)

	groups := o.estimator().ColDistinct(n.Input, n.Key)
	rows := o.estimator().Estimate(n)
	choices := physio.GroupChoices(n.Key, o.mode.Depth, o.dop())
	if o.mode.GroupFilter != nil {
		if filtered := o.mode.GroupFilter(n.Key, choices); len(filtered) > 0 {
			choices = filtered
		}
	}

	var out []*Plan
	for _, c := range children {
		for i := range choices {
			ch := choices[i]
			if !c.Props.SatisfiesAll(ch.Reqs) {
				continue
			}
			o.stats.Alternatives++
			outProps := ch.Kind.OutputProps(c.Props, n.Key)
			p := &Plan{
				Op: OpGroup, Children: []*Plan{c},
				Group: ch, GroupKey: n.Key, Aggs: n.Aggs,
				DOP:    ch.Opt.Parallel,
				KeyDom: c.Props.Domain(n.Key),
				Props:  o.restrict(outProps),
				Rows:   rows,
				Cost:   c.Cost + o.mode.Model.Group(ch, c.Rows, groups),
			}
			p.Width = 4 + 8*float64(len(n.Aggs))
			resident := c.Rows*c.Width + cost.MemGroup(ch, c.Rows, groups) + rows*p.Width
			p.Mem = math.Max(c.Mem, resident)
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no applicable grouping implementation for %s", n)
	}
	return o.keepPareto(o.pruneMem(out)), nil
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
