package core

// The enumeration as it stood before site tables (PR 19, c2aa5e6): every site
// builds the Plan of every alternative into a list, prunes the list against
// the memory budget (pruneMem) and only then keeps the cheapest plan per
// property vector (keepPareto). It is kept, comments stripped, as the oracle
// of TestSiteTablesMatchCollectThenPrune and is no product path: it shares
// with the optimiser only what this PR did not touch (the estimator, the
// cost model, the column table and its scan-property cache) and carries its
// own copies of the footprint, spill-compatibility and beam-cap rules. Its
// plans are keyed in a map of their own: a product Plan carries no key.

import (
	"fmt"
	"math"
	"sort"

	"dqo/internal/cost"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

type refOptimizer struct {
	*optimizer
	// tables records the table of every site of the run, for the differential.
	tables map[logical.Node][]*Plan
}

func (o *refOptimizer) optimize(n logical.Node) ([]*Plan, error) {
	table, err := o.enumerate(n)
	if err == nil {
		o.tables[n] = table
	}
	return table, err
}

func (o *refOptimizer) keepPareto(plans []*Plan) []*Plan {
	slot := make(map[props.Key]int, len(plans))
	out := make([]*Plan, 0, len(plans))
	for _, p := range plans {
		key := p.Props.Key()
		if i, ok := slot[key]; !ok {
			slot[key] = len(out)
			out = append(out, p)
		} else if p.Cost < out[i].Cost {
			out[i] = p
		}
	}
	if o.mode.Beam <= 0 || len(out) <= o.mode.Beam {
		return out
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out[:o.mode.Beam]
}

func refSetFootprint(p *Plan) {
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

func (o *refOptimizer) pruneMem(plans []*Plan) []*Plan {
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

func refStreamSegment(p *Plan) bool {
	for {
		switch {
		case p.Op == OpScan:
			return true
		case p.Op == OpFilter && p.Crack == nil && p.Enc == storage.EncNone, p.Op == OpProject:
			p = p.Children[0]
		default:
			return false
		}
	}
}

func refSpillCompatible(p *Plan) bool {
	switch p.Op {
	case OpSort:
		return p.DOP <= 1
	case OpJoin:
		return p.Join.Kind == physical.HJ && p.AV == "" && p.Index == nil &&
			p.Join.Opt.Parallel <= 1
	case OpGroup:
		return p.Group.Kind == physical.HG && p.Group.Opt.Parallel <= 1
	default:
		return false
	}
}

func (o *refOptimizer) spillTwin(plans []*Plan, budget float64) *Plan {
	var base *Plan
	baseFits := false
	for _, p := range plans {
		if !refSpillCompatible(p) {
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

func (o *refOptimizer) enumerate(n logical.Node) ([]*Plan, error) {
	switch n := n.(type) {
	case *logical.Scan:
		rows := o.est.Estimate(n)
		p := &Plan{
			Op: OpScan, Table: n.Table, Rel: n.Rel,
			Props: o.scanPropsOf(n.Rel).set,
			Rows:  rows,
		}
		p.Cost = o.mode.Model.Scan(p.Rows)
		refSetFootprint(p)
		o.stats.Alternatives++
		out := []*Plan{p}
		if o.mode.Scans != nil {
			for _, v := range o.mode.Scans.ScanVariants(n.Table) {
				vp := &Plan{
					Op: OpScan, Table: n.Table, Rel: v.Rel, AV: v.Label,
					Props: o.scanPropsOf(v.Rel).set,
					Rows:  rows,
					Cost:  o.mode.Model.Scan(rows),
				}
				refSetFootprint(vp)
				o.stats.Alternatives++
				out = append(out, vp)
			}
		}
		if o.mode.Depth == physio.Deep {
			if enc := relCompression(n.Rel); enc != storage.EncNone {
				cp := &Plan{
					Op: OpScan, Table: n.Table, Rel: n.Rel, Enc: enc,
					Props: o.scanPropsOf(n.Rel).set,
					Rows:  rows,
					Cost:  o.mode.Model.ScanCompressed(rows),
				}
				refSetFootprint(cp)
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
		rows := o.est.Estimate(n)
		var out []*Plan
		for _, c := range children {
			p := &Plan{
				Op: OpFilter, Children: []*Plan{c}, Pred: n.Pred,
				Props: c.Props,
				Rows:  rows,
				Cost:  c.Cost + o.mode.Model.Filter(c.Rows),
			}
			refSetFootprint(p)
			o.stats.Alternatives++
			out = append(out, p)
			if dop := o.mode.dop(); dop > 1 && refStreamSegment(c) {
				o.stats.Alternatives++
				pp := &Plan{
					Op: OpFilter, Children: []*Plan{c}, Pred: n.Pred, DOP: dop,
					Props: c.Props,
					Rows:  rows,
					Cost:  c.Cost + o.mode.Model.Parallel(o.mode.Model.Filter(c.Rows), dop),
				}
				refSetFootprint(pp)
				out = append(out, pp)
			}
		}
		if o.mode.CrackedIdx != nil {
			if scan, isScan := n.Input.(*logical.Scan); isScan {
				if col, lo, hi, ok := predRange(n.Pred); ok {
					if idx, have := o.mode.CrackedIdx.Cracked(scan.Table, col); have {
						base := &Plan{
							Op: OpScan, Table: scan.Table, Rel: scan.Rel,
							Props: o.scanPropsOf(scan.Rel).set,
							Rows:  o.est.Estimate(scan),
							Cost:  o.mode.Model.Scan(o.est.Estimate(scan)),
						}
						refSetFootprint(base)
						o.stats.Alternatives++
						cp := &Plan{
							Op: OpFilter, Children: []*Plan{base}, Pred: n.Pred,
							AV: idx.Label(), Crack: idx, CrackLo: lo, CrackHi: hi,
							Props: base.Props.DropOrder(),
							Rows:  rows,
							Cost:  base.Cost + o.mode.Model.Filter(rows),
						}
						refSetFootprint(cp)
						out = append(out, cp)
					}
				}
			}
		}
		if o.mode.Depth == physio.Deep {
			if scan, isScan := n.Input.(*logical.Scan); isScan {
				if col, lo, hi, ok := predRange(n.Pred); ok {
					if plo, phi, okb := encBounds(lo, hi); okb {
						if enc, skipped, total, work, oke := encFilterTarget(scan.Rel, col, plo, phi); oke {
							scanRows := o.est.Estimate(scan)
							base := &Plan{
								Op: OpScan, Table: scan.Table, Rel: scan.Rel,
								Enc:   relCompression(scan.Rel),
								Props: o.scanPropsOf(scan.Rel).set,
								Rows:  scanRows,
								Cost:  o.mode.Model.ScanCompressed(scanRows),
							}
							refSetFootprint(base)
							o.stats.Alternatives++
							ep := &Plan{
								Op: OpFilter, Children: []*Plan{base}, Pred: n.Pred,
								Enc: enc, EncCol: col, EncLo: plo, EncHi: phi,
								SegsSkipped: skipped, SegsTotal: total,
								Props: base.Props,
								Rows:  rows,
								Cost:  base.Cost + o.mode.Model.FilterCompressed(scanRows, float64(work), rows),
							}
							refSetFootprint(ep)
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
				dop = c.DOP
			}
			p := &Plan{
				Op: OpProject, Children: []*Plan{c}, Cols: n.Cols, DOP: dop,
				Props: c.Props.Project(o.colsOf(n.Cols)),
				Rows:  c.Rows,
				Cost:  c.Cost,
			}
			refSetFootprint(p)
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
			if c.Props.SortedOn(o.col(n.Key)) {
				np := &Plan{
					Op: OpSort, Children: []*Plan{c}, SortKey: n.Key, SortKind: sortx.Radix,
					Props: c.Props, Rows: c.Rows, Cost: c.Cost,
				}
				refSetFootprint(np)
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

func (o *refOptimizer) joinOutProps(ch physio.JoinChoice, build, probe props.Set, buildKey, probeKey string) props.Set {
	out := ch.Kind.OutputProps(build, probe, o.col(buildKey), o.col(probeKey))
	if !o.mode.TrackProbeOrder {
		switch ch.Kind {
		case physical.HJ, physical.SPHJ, physical.BSJ:
			out = out.DropOrder()
		}
	}
	return out
}

func (o *refOptimizer) sortPlan(child *Plan, key string, sk sortx.Kind, enforcer bool) *Plan {
	o.stats.Alternatives++
	p := &Plan{
		Op: OpSort, Children: []*Plan{child},
		SortKey: key, SortKind: sk, Enforcer: enforcer,
		Props: child.Props.AfterSortBy(o.col(key)),
		Rows:  child.Rows,
		Cost:  child.Cost + o.mode.Model.SortBy(child.Rows, sk),
	}
	refSetFootprint(p)
	return p
}

func (o *refOptimizer) sortVariants(child *Plan, key string, sk sortx.Kind, enforcer bool) []*Plan {
	out := []*Plan{o.sortPlan(child, key, sk, enforcer)}
	if dop := o.mode.dop(); dop > 1 {
		o.stats.Alternatives++
		pp := &Plan{
			Op: OpSort, Children: []*Plan{child},
			SortKey: key, SortKind: sk, Enforcer: enforcer, DOP: dop,
			Props: child.Props.AfterSortBy(o.col(key)),
			Rows:  child.Rows,
			Cost:  child.Cost + o.mode.Model.Parallel(o.mode.Model.SortBy(child.Rows, sk), dop),
		}
		refSetFootprint(pp)
		out = append(out, pp)
	}
	return out
}

func (o *refOptimizer) withEnforcers(plans []*Plan, key string) []*Plan {
	out := append([]*Plan(nil), plans...)
	for _, p := range plans {
		if p.Props.SortedOn(o.col(key)) {
			continue
		}
		for _, sk := range o.sortKinds() {
			out = append(out, o.sortVariants(p, key, sk, true)...)
		}
	}
	return o.keepPareto(out)
}

func (o *refOptimizer) optimizeJoin(n *logical.Join) ([]*Plan, error) {
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

	rows := o.est.Estimate(n)
	keyDistinct := o.est.ColDistinct(n.Left, n.LeftKey)
	rightDistinct := o.est.ColDistinct(n.Right, n.RightKey)
	choices := physio.JoinChoices(o.mode.Depth, o.mode.dop())
	swapChoices := physio.JoinChoices(o.mode.Depth, o.mode.dop())

	var out []*Plan
	for _, lp := range lefts {
		for _, rp := range rights {
			for i := range choices {
				ch := choices[i]
				buildReqs, probeReqs := ch.Kind.Requirements(n.LeftKey, n.RightKey)
				if !lp.Props.SatisfiesAll(buildReqs) || !rp.Props.SatisfiesAll(probeReqs) {
					continue
				}
				o.stats.Alternatives++
				outProps := o.joinOutProps(ch, lp.Props, rp.Props, n.LeftKey, n.RightKey)
				p := &Plan{
					Op: OpJoin, Children: []*Plan{lp, rp},
					Join: ch, LeftKey: n.LeftKey, RightKey: n.RightKey,
					DOP:    ch.Opt.Parallel,
					KeyDom: lp.Props.Domain(o.col(n.LeftKey)),
					Props:  outProps,
					Rows:   rows,
					Cost:   lp.Cost + rp.Cost + o.mode.Model.Join(ch, lp.Rows, rp.Rows, keyDistinct),
				}
				refSetJoinFootprint(p, lp, rp, cost.MemJoin(ch, lp.Rows, rp.Rows, keyDistinct, rows))
				out = append(out, p)
			}
			for i := range swapChoices {
				ch := swapChoices[i]
				buildReqs, probeReqs := ch.Kind.Requirements(n.RightKey, n.LeftKey)
				if !rp.Props.SatisfiesAll(buildReqs) || !lp.Props.SatisfiesAll(probeReqs) {
					continue
				}
				o.stats.Alternatives++
				outProps := o.joinOutProps(ch, rp.Props, lp.Props, n.RightKey, n.LeftKey)
				p := &Plan{
					Op: OpJoin, Children: []*Plan{lp, rp},
					Join: ch, LeftKey: n.LeftKey, RightKey: n.RightKey, Swapped: true,
					DOP:    ch.Opt.Parallel,
					KeyDom: rp.Props.Domain(o.col(n.RightKey)),
					Props:  outProps,
					Rows:   rows,
					Cost:   lp.Cost + rp.Cost + o.mode.Model.Join(ch, rp.Rows, lp.Rows, rightDistinct),
				}
				refSetJoinFootprint(p, lp, rp, cost.MemJoin(ch, rp.Rows, lp.Rows, rightDistinct, rows))
				out = append(out, p)
			}
		}
	}
	out = append(out, o.indexedJoins(n, rows, lefts, rights, func(scan *logical.Scan) *Plan {
		base := &Plan{
			Op: OpScan, Table: scan.Table, Rel: scan.Rel,
			Props: o.scanPropsOf(scan.Rel).set,
			Rows:  o.est.Estimate(scan),
			Cost:  o.mode.Model.Scan(o.est.Estimate(scan)),
		}
		refSetFootprint(base)
		return base
	})...)
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no applicable join implementation for %s", n)
	}
	return o.keepPareto(o.pruneMem(out)), nil
}

func (o *refOptimizer) indexedJoins(n *logical.Join, rows float64, lefts, rights []*Plan, scanPlan func(*logical.Scan) *Plan) []*Plan {
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
		distinct := o.est.ColDistinct(scan, buildKey)
		kind := physical.HJ
		if idx.SPH() {
			kind = physical.SPHJ
		}
		opt := physical.JoinOptions{Hash: idx.Hash()}
		ch := physio.JoinChoice{Kind: kind, Opt: opt}
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
				KeyDom: base.Props.Domain(o.col(buildKey)),
				Props:  o.joinOutProps(ch, base.Props, pp.Props, buildKey, probeKey),
				Rows:   rows,
				Cost:   base.Cost + pp.Cost + o.mode.Model.Join(ch, 0, pp.Rows, distinct),
			}
			refSetJoinFootprint(ap, lp, rp, cost.MemJoin(ch, 0, pp.Rows, distinct, rows))
			out = append(out, ap)
		}
	}
	return out
}

func refSetJoinFootprint(p, lp, rp *Plan, work float64) {
	p.Width = lp.Width + rp.Width
	resident := lp.Rows*lp.Width + rp.Rows*rp.Width + work + p.Rows*p.Width
	p.Mem = math.Max(math.Max(lp.Mem, rp.Mem), resident)
}

func (o *refOptimizer) optimizeGroup(n *logical.GroupBy) ([]*Plan, error) {
	children, err := o.optimize(n.Input)
	if err != nil {
		return nil, err
	}
	children = o.withEnforcers(children, n.Key)

	groups := o.est.ColDistinct(n.Input, n.Key)
	rows := o.est.Estimate(n)
	choices := physio.GroupChoices(o.mode.Depth, o.mode.dop())

	var out []*Plan
	for _, c := range children {
		for i := range choices {
			ch := choices[i]
			if !c.Props.SatisfiesAll(ch.Kind.Requirements(n.Key)) {
				continue
			}
			o.stats.Alternatives++
			outProps := ch.Kind.OutputProps(c.Props, o.col(n.Key))
			p := &Plan{
				Op: OpGroup, Children: []*Plan{c},
				Group: ch, GroupKey: n.Key, Aggs: n.Aggs,
				DOP:    ch.Opt.Parallel,
				KeyDom: c.Props.Domain(o.col(n.Key)),
				Props:  outProps,
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
