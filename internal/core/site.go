package core

import (
	"math"
	"sort"

	"dqo/internal/logical"
	"dqo/internal/props"
)

// outProps is an output property vector with its table key. Property sets
// are immutable once built, so every alternative that derives the same vector
// from the same inputs (an algorithm family over one pair of plans, the sorts
// of one child) shares one value, computed when the first of them asks.
type outProps struct {
	set props.Set
	key props.Key
	ok  bool
}

func keyed(s props.Set) outProps { return outProps{set: s, key: s.Key(), ok: true} }

// keyed is keyed at a DP site; the greedy pick compares costs alone and
// leaves the key unset.
func (s *site) keyed(ps props.Set) outProps {
	if s.greedy {
		return outProps{set: ps, ok: true}
	}
	return keyed(ps)
}

// variant tags the alternatives the greedy tier has rules for (site.considers,
// site.take); every other alternative is ordinary. The DP table prices them
// all alike.
type variant uint8

const (
	ordinary variant = iota
	avScan           // an Algorithmic-View access path in place of the stored table
	cracked          // a range filter answered by a cracked index
	encoded          // a range filter run on the compressed payload
)

// How a breaker alternative ranks as the base of a spill twin: not at all,
// or with a disk-backed twin, and then better when every input fits the
// budget by itself — spilling the breaker cannot shrink a child's residency.
const (
	noTwin = iota
	twinOverInputs
	twinFits
)

// fits reports whether each of the inputs is within the memory budget.
func (o *optimizer) fits(inputs ...*Plan) bool {
	for _, c := range inputs {
		if c.Mem > float64(o.mode.MemBudget) {
			return false
		}
	}
	return true
}

func twinRank(spillable, inputsFit bool) int {
	if !spillable {
		return noTwin
	}
	if inputsFit {
		return twinFits
	}
	return twinOverInputs
}

// site consumes what one enumerator (optimizer.go) offers at one site: each
// alternative as the numbers that decide its fate (property key, cost,
// estimated peak memory, twin rank) plus a constructor, which runs only if
// the alternative takes a place. This is the one place where an alternative
// wins or loses, in one of two consumers:
//
//   - The DP table: per distinct output property vector the cheapest
//     alternative, in order of first appearance; the first of its vector or
//     one strictly cheaper than the holder takes the place. (Dropping a plan
//     whose properties another subsumes would need a lattice; per-vector
//     pruning keeps enumeration exact for the requirements we check.)
//   - The greedy tier's pick (greedy set): one running best over the input
//     the tier narrowed to, by the same strict <.
//
// So in both the first enumerated wins a tie, and the enumeration order is
// the tie-break: serial before parallel, decoded before compressed, in-memory
// before spilling (a twin is priced above its base). Both apply the memory
// budget alike (offerBreaker) and fall back alike when nothing fits it
// (fallback).
type site struct {
	o     *optimizer
	plans []*Plan
	// Fallbacks of a breaker site where nothing offered so far fits the
	// memory budget, each a running best: the alternative of least Mem (the
	// first wins), and the base of the spill twin (twin rank, then cost, the
	// first wins). pruned records that the budget turned an alternative away.
	smallest *Plan
	base     *Plan
	baseRank int
	pruned   bool

	greedy bool
	pick   pick
}

// pick is the greedy tier's running best at one site and its rules' state.
type pick struct {
	want  string // a column the parent would like sorted (site.considers)
	empty bool   // a provably empty input: the first alternative ends the site
	best  *Plan
	done  bool // the site has ended: later alternatives are not costed
}

// built constructs an alternative that took a place, remembering its key.
func built(key props.Key, build func(*Plan)) *Plan {
	p := new(Plan)
	build(p)
	p.key = key
	return p
}

// offer costs one streaming alternative (a scan, filter, projection or
// enforcer sort), or a breaker alternative that fits the memory budget.
func (s *site) offer(v variant, key props.Key, cost float64, build func(*Plan)) {
	if s.greedy {
		s.take(v, cost, build)
		return
	}
	s.o.stats.Alternatives++
	s.put(key, cost, build)
}

// put enters an alternative into the DP table. The slot is found by a scan of
// the entries' keys: a table holds a handful of vectors, fewer than a map
// costs to set up.
func (s *site) put(key props.Key, cost float64, build func(*Plan)) {
	for i, q := range s.plans {
		if q.key == key {
			if cost < q.Cost {
				s.plans[i] = built(key, build)
			}
			return
		}
	}
	s.plans = append(s.plans, built(key, build))
}

// offerBreaker is offer at a site that materialises (sort, join, grouping),
// where a mode with a MemBudget prunes on estimated peak memory: an
// alternative over the budget never enters the table nor becomes the pick.
// Until one fits, those over it compete for the two fallbacks, and are built
// only when they take the lead of one. Without a budget, and for whatever
// fits it, this is offer.
func (s *site) offerBreaker(key props.Key, cost, mem float64, twin int, build func(*Plan)) {
	if budget := s.o.mode.MemBudget; budget <= 0 || mem <= float64(budget) {
		s.offer(ordinary, key, cost, build)
		return
	}
	if s.pick.done {
		return
	}
	s.o.stats.Alternatives++
	s.pruned = true
	if len(s.plans) > 0 || s.pick.best != nil {
		return
	}
	var p *Plan
	if s.smallest == nil || mem < s.smallest.Mem {
		p = built(key, build)
		s.smallest = p
	}
	if s.o.mode.Spill && twin > noTwin && (twin > s.baseRank || twin == s.baseRank && cost < s.base.Cost) {
		if p == nil {
			p = built(key, build)
		}
		s.base, s.baseRank = p, twin
	}
}

// take is the greedy pick's offer: the first alternative is the best, a later
// one replaces it, rebuilt in place, when strictly cheaper. A cracked or
// direct-on-compressed filter that wins ends the site; so does an AV access
// path, taken for its order whatever its cost.
func (s *site) take(v variant, cost float64, build func(*Plan)) {
	g := &s.pick
	if g.done {
		return
	}
	s.o.stats.Alternatives++
	switch {
	case g.best == nil:
		g.best = new(Plan)
		g.done = g.empty
	case v == avScan:
		g.done = true
	case cost < g.best.Cost:
		g.done = v == cracked || v == encoded
	default:
		return
	}
	build(g.best)
}

// considers reports whether the site costs alternative v before the
// enumerator plans anything for it; alt is the alternative's property vector
// where a rule reads it (an AV access path's). The DP considers everything.
// The greedy pick considers nothing once its site has ended, an AV access
// path only for the wanted order it gains over the best, and a crack, which
// emits in piece order, only when the best has no wanted order to lose.
func (s *site) considers(v variant, alt props.Set) bool {
	if !s.greedy {
		return true
	}
	g := &s.pick
	ordered := func(ps props.Set) bool { return g.want != "" && ps.SortedOn(g.want) }
	switch {
	case g.done:
		return false
	case v == avScan:
		return !ordered(g.best.Props) && ordered(alt)
	case v == cracked:
		return !ordered(g.best.Props)
	}
	return true
}

// scanBase plans the bare scan of n that an AV-backed or direct-on-compressed
// alternative subsumes: the DP's is the plain scan or, under a filter on a
// payload of compression enc, the compressed-scan twin; the greedy tier's is
// its pick for a scan no parent wants ordered.
func (s *site) scanBase(n *logical.Scan, enc props.Compression) *Plan {
	o := s.o
	if s.greedy {
		return o.greedyScan(n, "")
	}
	rows := o.estimator().Estimate(n)
	p := new(Plan)
	if enc == props.NoCompression {
		o.scanPlan(p, n, n.Rel, "", enc, o.mode.Model.Scan(rows))
	} else {
		o.scanPlan(p, n, n.Rel, "", relCompression(n.Rel), o.mode.Model.ScanCompressed(rows, enc))
	}
	return p
}

// empty reports whether nothing was offered.
func (s *site) empty() bool { return len(s.plans) == 0 && s.smallest == nil }

// table returns the finished table, capped to the mode's beam, or the
// fallback when every alternative exceeded the budget.
func (s *site) table() []*Plan {
	if len(s.plans) == 0 && s.smallest != nil {
		return []*Plan{s.fallback()}
	}
	return s.o.beamCap(s.plans)
}

// picked returns the greedy pick, or the fallback when every alternative
// exceeded the budget.
func (s *site) picked() *Plan {
	if s.pick.best != nil {
		return s.pick.best
	}
	return s.fallback()
}

// fallback is what a breaker site where nothing fits the budget degrades to:
// in a spill-enabled mode the disk-backed twin of its spill base, otherwise
// its smallest alternative, so optimisation still returns a plan and the
// runtime budget enforces the limit.
func (s *site) fallback() *Plan {
	if s.base != nil {
		return s.o.spillTwin(s.base)
	}
	return s.smallest
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

// spillTwin builds the disk-backed twin of base, the cheapest
// spill-compatible alternative of a site where nothing fits the memory
// budget. The twin produces the identical output (same property vector), is
// priced by Model.Spill over the input rows with a nominal two disk passes
// (partition write + read; deeper recursion is the skew exception, not the
// rule), and claims the budget as its peak residency — the runtime kernel
// bounds itself to the spill grant.
func (o *optimizer) spillTwin(base *Plan) *Plan {
	o.stats.Alternatives++
	var inRows float64
	for _, c := range base.Children {
		inRows += c.Rows
	}
	twin := *base
	twin.Spill = true
	twin.DOP = 0
	twin.Cost = o.mode.Model.Spill(base.Cost, inRows, 2)
	twin.Mem = math.Min(base.Mem, float64(o.mode.MemBudget))
	return &twin
}
