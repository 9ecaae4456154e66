package core

import (
	"math"
	"sort"

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

// How a breaker alternative ranks as the base of a spill twin: not at all,
// or with a disk-backed twin (spillCompatible), and then better when every
// input fits the budget by itself — spilling the breaker cannot shrink a
// child's residency.
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
	switch {
	case !spillable:
		return noTwin
	case inputsFit:
		return twinFits
	default:
		return twinOverInputs
	}
}

// site is the DP table of one enumeration site: per distinct output property
// vector the cheapest alternative offered, in order of first appearance.
// Dropping a plan strictly worse than another whose properties subsume it
// would require a lattice — per-vector pruning is the classical compromise
// and keeps enumeration exact for the requirements we check.
//
// An alternative is offered as the numbers that decide its fate (property
// key, cost, estimated peak memory) plus a constructor, and its Plan is built
// only if it takes a place: the first of its vector, or strictly cheaper than
// the holder (on a cost tie the earlier-enumerated alternative stays). This
// is the one place where an alternative wins or loses.
type site struct {
	o     *optimizer
	plans []*Plan
	// Fallbacks of a breaker site where nothing offered so far fits the
	// memory budget, each a running best: the alternative of least Mem (the
	// first wins), and the base of the spill twin (twin rank, then cost, the
	// first wins).
	smallest *Plan
	base     *Plan
	baseRank int
}

// built constructs an alternative that took a place, remembering its key.
func built(key props.Key, build func() *Plan) *Plan {
	p := build()
	p.key = key
	return p
}

// offer costs one alternative against the table. The slot is found by a scan
// of the entries' keys: a table holds a handful of vectors, fewer than a map
// costs to set up.
func (s *site) offer(key props.Key, cost float64, build func() *Plan) {
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
// alternative over the budget never enters the table. Until one fits, those
// over it compete for the two fallbacks, and are built only when they take
// the lead of one. Without a budget, and for whatever fits it, this is offer:
// budget-free enumeration and fitting plans stay byte-identical.
func (s *site) offerBreaker(key props.Key, cost, mem float64, twin int, build func() *Plan) {
	if budget := s.o.mode.MemBudget; budget <= 0 || mem <= float64(budget) {
		s.offer(key, cost, build)
		return
	}
	if len(s.plans) > 0 {
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

// empty reports whether nothing was offered.
func (s *site) empty() bool { return len(s.plans) == 0 && s.smallest == nil }

// table returns the finished table, capped to the mode's beam. A breaker
// site where every alternative exceeded the budget degrades, in a
// spill-enabled mode, to the disk-backed twin of its spill base, and
// otherwise to its smallest alternative, so optimisation still returns a plan
// and the runtime budget enforces the limit.
func (s *site) table() []*Plan {
	if len(s.plans) == 0 && s.smallest != nil {
		if s.base != nil {
			return []*Plan{s.o.spillTwin(s.base)}
		}
		return []*Plan{s.smallest}
	}
	return s.o.beamCap(s.plans)
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
