package core

import (
	"cmp"
	"slices"

	"dqo/internal/hashtable"
	"dqo/internal/logical"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// outProps is an output property vector with its table key, computed once
// for every alternative that derives it from the same inputs (an algorithm
// family over one pair of plans, the sorts of one child).
type outProps struct {
	set props.Set
	key props.Key
	ok  bool
}

func keyed(s props.Set) outProps { return outProps{set: s, key: s.Key(), ok: true} }

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

// slot is one alternative as data: what decides its fate (its output
// vector's key, cost and estimated peak memory), what a parent reads of it,
// and how it is built: its inputs' slots and a closure-free choice
// descriptor. DP tables and the greedy pick hold slots; the returned plan is
// built from the winning root slot once enumeration ends (build).
type slot struct {
	key   props.Key
	props props.Set
	// cost, rows, width and mem are the plan node's Cost, Rows, Width, Mem.
	cost, rows, width, mem float64
	in                     [2]*slot
	node                   logical.Node // the site's logical node; nil for a sort
	how
}

// how is a slot's choice descriptor: the operator, the variant, a sort's
// algorithm and key or a join's or grouping's kind and molecules, and an AV
// or encoded alternative's payload (its index in optimizer.aux + 1, or 0).
type how struct {
	op                       OpKind
	v                        variant
	enc                      storage.Encoding
	sort                     sortx.Kind // a sort's algorithm, or a join's or grouping's sort molecule
	kind                     uint8      // physical.JoinKind or physical.GroupKind
	hash                     hashtable.Func
	col                      props.Col // OpSort: the key
	swapped, enforcer, spill bool
	aux                      int32
	dop                      int
}

// aux is the payload of an alternative that reads an Algorithmic View or a
// compressed payload.
type aux struct {
	rel            *storage.Relation // an AV scan's relation
	av             string
	index          PrebuiltIndex
	crack          RangeIndex
	lo, hi         uint64 // a cracked filter's key range
	encCol         string
	encLo, encHi   uint32
	skipped, total int
}

// How a breaker alternative ranks as the base of a spill twin: not at all,
// or with a disk-backed twin, and then better when every input fits the
// budget by itself — spilling the breaker cannot shrink a child's residency.
const (
	noTwin = iota
	twinOverInputs
	twinFits
)

// fits reports whether each of the inputs is within the memory budget.
func (o *optimizer) fits(inputs ...*slot) bool {
	for _, c := range inputs {
		if c.mem > float64(o.mode.MemBudget) {
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

// site consumes what one enumerator (optimizer.go) offers at one site: it
// admits each alternative by the numbers that decide its fate (its output
// vector's key, cost, peak memory, twin rank), and the enumerator describes
// the alternative only in the place it takes. This is the one place where an
// alternative wins or loses, in one of two consumers:
//
//   - The DP table: per distinct output property vector the cheapest
//     alternative, in order of first appearance; the first of its vector or
//     one strictly cheaper than the holder takes the place.
//   - The greedy tier's pick (greedy set): one running best over the input
//     the tier narrowed to, by the same strict <, rewritten in place.
//
// So in both the first enumerated wins a tie: serial before parallel,
// decoded before compressed, in-memory before spilling. Both apply the
// memory budget (admitBreaker) and fall back (fallback) alike.
type site struct {
	o     *optimizer
	plans []slot
	// Fallbacks while nothing admitted fits the memory budget, each a running
	// best: the least mem (fell: there is one) and the spill twin's base (twin
	// rank, then cost). An over-budget alternative that leads either is
	// described in over and settled before the next is weighed. pruned: the
	// budget turned an alternative away.
	smallest, base, over  slot
	baseRank, overTwin    int
	fell, pending, pruned bool

	greedy bool
	pick   pick
}

// pick is the greedy tier's running best at one site and its rules' state.
type pick struct {
	want  props.Cols // a column the parent would like sorted (site.considers)
	empty bool       // a provably empty input: the first alternative ends the site
	best  slot
	have  bool
	done  bool // the site has ended: later alternatives are not costed
}

// admit costs a streaming alternative, or a breaker alternative that fits the
// memory budget, and returns the place it takes, or nil when it loses. A DP
// table holds a handful of vectors: a scan of their keys beats a map.
func (s *site) admit(v variant, key props.Key, cost float64) *slot {
	if s.greedy {
		return s.take(v, cost)
	}
	s.o.stats.Alternatives++
	for i := range s.plans {
		if q := &s.plans[i]; q.key == key {
			if cost < q.cost {
				return q
			}
			return nil
		}
	}
	if s.plans == nil {
		s.plans, s.o.buf = s.o.buf[:0], nil
	}
	s.plans = append(s.plans, slot{})
	return &s.plans[len(s.plans)-1]
}

// admitBreaker is admit at a sort, join or grouping, where a mode's
// MemBudget prunes on peak memory: an alternative over it never enters the
// table nor becomes the pick, but competes for the fallbacks until one fits.
func (s *site) admitBreaker(key props.Key, cost, mem float64, twin int) *slot {
	if budget := s.o.mode.MemBudget; budget <= 0 || mem <= float64(budget) {
		return s.admit(ordinary, key, cost)
	}
	s.settle()
	if s.pick.done {
		return nil
	}
	s.o.stats.Alternatives++
	s.pruned = true
	if len(s.plans) > 0 || s.pick.have {
		return nil
	}
	s.pending, s.overTwin = true, twin
	return &s.over
}

// settle weighs the last over-budget alternative described against the
// fallbacks, and takes the lead of those it beats.
func (s *site) settle() {
	if !s.pending {
		return
	}
	s.pending = false
	if !s.fell || s.over.mem < s.smallest.mem {
		s.smallest, s.fell = s.over, true
	}
	if t := s.overTwin; s.o.mode.Spill && t > noTwin && (t > s.baseRank || t == s.baseRank && s.over.cost < s.base.cost) {
		s.base, s.baseRank = s.over, t
	}
}

// take is the greedy pick's admit: the first alternative is the best, a
// later one replaces it when strictly cheaper. A winning cracked or
// direct-on-compressed filter ends the site, as does an AV access path,
// taken for its order whatever its cost.
func (s *site) take(v variant, cost float64) *slot {
	g := &s.pick
	if g.done {
		return nil
	}
	s.o.stats.Alternatives++
	switch {
	case !g.have:
		g.have, g.done = true, g.empty
	case v == avScan:
		g.done = true
	case cost < g.best.cost:
		g.done = v == cracked || v == encoded
	default:
		return nil
	}
	return &g.best
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
	switch {
	case g.done:
		return false
	case v == avScan:
		return g.best.props.Sorted&g.want == 0 && alt.Sorted&g.want != 0
	case v == cracked:
		return g.best.props.Sorted&g.want == 0
	}
	return true
}

// scanBase plans the bare scan of n that an AV-backed or direct-on-compressed
// alternative subsumes: the DP's is the plain scan or, under a filter on a
// payload of compression enc, the compressed-scan twin; the greedy tier's is
// its pick for a scan no parent wants ordered.
func (s *site) scanBase(n *logical.Scan, enc storage.Encoding) *slot {
	o := s.o
	if s.greedy {
		return &o.greedyScan(n, 0)[0]
	}
	p := new(slot)
	if rows := o.est.Estimate(n); enc == storage.EncNone {
		*p = o.scanSlot(n, n.Rel, "", enc, rows, o.mode.Model.Scan(rows))
	} else {
		*p = o.scanSlot(n, n.Rel, "", relCompression(n.Rel), rows, o.mode.Model.ScanCompressed(rows))
	}
	return p
}

// empty reports whether nothing was admitted.
func (s *site) empty() bool {
	s.settle()
	return len(s.plans) == 0 && !s.fell
}

// keep moves finished slots into the optimizer's slab, where they keep the
// addresses their parents refer to: a table costs no allocation of its own.
func (o *optimizer) keep(plans ...slot) []slot {
	if cap(o.slab)-len(o.slab) < len(plans) {
		o.slab = make([]slot, 0, max(len(plans), 2*cap(o.slab), 8))
	}
	start := len(o.slab)
	o.slab = append(o.slab, plans...)
	return o.slab[start:len(o.slab):len(o.slab)]
}

// table returns the finished table, capped to the mode's beam, or the
// fallback when every alternative exceeded the budget. A site builds its
// table in the optimizer's scratch buffer (taken at its first entry, unless
// another site under construction holds it) and hands it back here.
func (s *site) table() []slot {
	if s.settle(); len(s.plans) == 0 && s.fell {
		return s.o.keep(s.fallback())
	}
	out := s.o.keep(s.o.beamCap(s.plans)...)
	if cap(s.plans) > cap(s.o.buf) {
		s.o.buf = s.plans[:0]
	}
	return out
}

// picked returns the greedy pick, or the fallback when every alternative
// exceeded the budget, as a table of one: the slot the parent site refers to.
func (s *site) picked() []slot {
	if s.settle(); !s.pick.have {
		return s.o.keep(s.fallback())
	}
	return s.o.keep(s.pick.best)
}

// fallback is what a breaker site where nothing fits the budget degrades to:
// the disk-backed twin of its spill base under Spill, else its smallest
// alternative, leaving the runtime budget to enforce the limit.
func (s *site) fallback() slot {
	if s.baseRank > noTwin {
		return s.o.spillTwin(s.base)
	}
	return s.smallest
}

// beamCap truncates a DP table to the Beam cheapest entries, ties in
// enumeration order (a stable sort); Beam <= 0 leaves it untouched.
func (o *optimizer) beamCap(plans []slot) []slot {
	if o.mode.Beam <= 0 || len(plans) <= o.mode.Beam {
		return plans
	}
	slices.SortStableFunc(plans, func(a, b slot) int { return cmp.Compare(a.cost, b.cost) })
	return plans[:o.mode.Beam]
}

// spillTwin is the disk-backed twin of base: the same output, priced by
// Model.Spill over the input rows at a nominal two disk passes (partition
// write and read), claiming the budget as its peak residency — the kernel
// bounds itself to the spill grant.
func (o *optimizer) spillTwin(base slot) slot {
	o.stats.Alternatives++
	var inRows float64
	for _, c := range base.in {
		if c != nil {
			inRows += c.rows
		}
	}
	twin := base
	twin.spill = true
	twin.cost = o.mode.Model.Spill(base.cost, inRows, 2)
	twin.mem = min(base.mem, float64(o.mode.MemBudget))
	return twin
}
