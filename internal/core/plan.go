package core

import (
	"fmt"
	"slices"
	"strings"

	"dqo/internal/exec"
	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// OpKind identifies a physical plan operator.
type OpKind uint8

// Physical plan operators. OpSort covers both user-requested ORDER BY and
// optimiser-inserted sort enforcers.
const (
	OpScan OpKind = iota
	OpFilter
	OpProject
	OpSort
	OpJoin
	OpGroup
)

// String returns the operator name.
func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "Scan"
	case OpFilter:
		return "Filter"
	case OpProject:
		return "Project"
	case OpSort:
		return "Sort"
	case OpJoin:
		return "Join"
	case OpGroup:
		return "Group"
	default:
		return "?"
	}
}

// Plan is a physical plan node produced by the optimiser.
type Plan struct {
	Op       OpKind
	Children []*Plan

	// Operator payloads (validity depends on Op).
	Table    string            // OpScan
	Rel      *storage.Relation // OpScan
	Pred     expr.Expr         // OpFilter
	Cols     []string          // OpProject
	SortKey  string            // OpSort
	SortKind sortx.Kind        // OpSort
	Enforcer bool              // OpSort: inserted by the optimiser, not the query
	Group    physio.GroupChoice
	GroupKey string
	Aggs     []expr.AggSpec
	Join     physio.JoinChoice
	LeftKey  string
	RightKey string
	// Swapped marks a commuted join: build on the right input, probe with
	// the left; the output schema is unchanged.
	Swapped bool
	// KeyDom is the key domain the optimiser planned with (OpJoin: build
	// side; OpGroup: grouping key); the executor passes it to the kernels.
	KeyDom props.Domain
	// AV labels the Algorithmic View backing this node (OpScan variant or
	// OpJoin with a prebuilt index); empty for plain operators.
	AV string
	// Index is the prebuilt build side of an AV-backed join.
	Index PrebuiltIndex
	// Crack is the adaptive index answering an AV-backed range filter over
	// [CrackLo, CrackHi).
	Crack            RangeIndex
	CrackLo, CrackHi uint64
	// Enc marks a direct-on-compressed granule: an OpScan that decodes the
	// encoded relation once and streams plain morsels, or an OpFilter whose
	// range predicate runs on the encoded payload of column EncCol with
	// inclusive value/code bounds [EncLo, EncHi]. SegsSkipped/SegsTotal are
	// the plan-time zone-map census (exact — zone maps are exact metadata),
	// surfaced by EXPLAIN.
	Enc          storage.Encoding
	EncCol       string
	EncLo, EncHi uint32
	SegsSkipped  int
	SegsTotal    int

	// DOP is this operator's chosen degree of parallelism (0 or 1 =
	// serial). For joins/groups/sorts it mirrors the chosen kernel's
	// Parallel molecule; for filters/projects it marks membership in a
	// parallel streaming pipe segment.
	DOP int

	// Spill marks a breaker lowered to its disk-backed twin (external merge
	// sort, grace hash join, or spilling hash aggregation): enumerated only
	// when no in-memory alternative fits the mode's MemBudget, byte-identical
	// in output to the serial in-memory kernel.
	Spill bool

	// Derived bookkeeping.
	Props props.Set // output property vector
	Rows  float64   // estimated output cardinality
	Cost  float64   // cumulative estimated cost
	// Width is the estimated output row width in bytes; Mem the estimated
	// peak resident bytes anywhere in the subtree (materialised inputs +
	// kernel working set + output). Modes with a MemBudget prune on Mem.
	Width float64
	Mem   float64

	// key is Props.Key(), set by the DP table the plan took a place in: the
	// plan is looked up by it at its own site and again as a candidate input
	// of its parent's.
	key props.Key
}

// Label returns a one-line description of this node alone.
func (p *Plan) Label() string {
	if p.Spill {
		return p.label() + " [spill]"
	}
	return p.label()
}

func (p *Plan) label() string {
	switch p.Op {
	case OpScan:
		if p.AV != "" {
			return fmt.Sprintf("Scan(%s via %s)", p.Table, p.AV)
		}
		if p.Enc != storage.EncNone {
			return fmt.Sprintf("CompressedScan(%s) [%s]", p.Table, p.Enc)
		}
		return fmt.Sprintf("Scan(%s)", p.Table)
	case OpFilter:
		if p.AV != "" {
			return fmt.Sprintf("Filter(%s) via %s", p.Pred, p.AV)
		}
		if p.Enc != storage.EncNone {
			return fmt.Sprintf("CompressedFilter(%s) [%s segs=%d/%d skipped]",
				p.Pred, p.Enc, p.SegsSkipped, p.SegsTotal)
		}
		return fmt.Sprintf("Filter(%s)", p.Pred)
	case OpProject:
		return "Project(" + strings.Join(p.Cols, ", ") + ")"
	case OpSort:
		kind := p.SortKind.String()
		if p.Enforcer {
			return fmt.Sprintf("Sort(%s, %s) [enforcer]", p.SortKey, kind)
		}
		return fmt.Sprintf("Sort(%s, %s)", p.SortKey, kind)
	case OpJoin:
		suffix := ""
		if p.Swapped {
			suffix = " [build right]"
		}
		if p.AV != "" {
			return fmt.Sprintf("%s(%s = %s) via %s%s", p.Join.Label(), p.LeftKey, p.RightKey, p.AV, suffix)
		}
		return fmt.Sprintf("%s(%s = %s)%s", p.Join.Label(), p.LeftKey, p.RightKey, suffix)
	case OpGroup:
		parts := make([]string, len(p.Aggs))
		for i, a := range p.Aggs {
			parts[i] = a.String()
		}
		return fmt.Sprintf("%s(%s; %s)", p.Group.Label(), p.GroupKey, strings.Join(parts, ", "))
	default:
		return "?"
	}
}

// Explain renders the plan tree with cost, cardinality, and the property
// vector at every node.
func (p *Plan) Explain() string {
	var b strings.Builder
	p.PreOrder(func(n *Plan, depth int) {
		pad := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s%s  (cost=%.0f rows=%.0f)\n", pad, n.Label(), n.Cost, n.Rows)
		if desc := describeProps(n.Props); desc != "" {
			fmt.Fprintf(&b, "%s  props: %s\n", pad, desc)
		}
	})
	return b.String()
}

// ExplainDeep is Explain plus the granule tree of every join/group node —
// the Figure 3 view of the chosen plan.
func (p *Plan) ExplainDeep() string { return p.Explain() + p.GranuleTrees() }

// GranuleTree returns the granule tree that explains this node's join or
// grouping implementation, nil for other operators. The tree is a function
// of the chosen granule and the key columns (a join names its build key
// first), derived when somebody reads it: enumeration carries none.
func (p *Plan) GranuleTree() *physio.Granule {
	switch {
	case p.Op == OpJoin && p.Swapped:
		return p.Join.Tree(p.RightKey, p.LeftKey)
	case p.Op == OpJoin:
		return p.Join.Tree(p.LeftKey, p.RightKey)
	case p.Op == OpGroup:
		return p.Group.Tree(p.GroupKey)
	default:
		return nil
	}
}

// GranuleTrees renders the granule tree of every join/group node, bottom-up.
func (p *Plan) GranuleTrees() string {
	var b strings.Builder
	var rec func(n *Plan)
	rec = func(n *Plan) {
		for _, c := range n.Children {
			rec(c)
		}
		if tree := n.GranuleTree(); tree != nil {
			fmt.Fprintf(&b, "\n%s granule tree (physicality %.2f):\n%s", n.Label(), tree.Physicality(), tree.Render())
		}
	}
	rec(p)
	return b.String()
}

func describeProps(s props.Set) string {
	var parts []string
	if len(s.SortedBy) > 0 {
		parts = append(parts, "sorted{"+strings.Join(s.SortedBy, ",")+"}")
	}
	if len(s.GroupedBy) > 0 {
		parts = append(parts, "grouped{"+strings.Join(s.GroupedBy, ",")+"}")
	}
	var dense []string
	for c, d := range s.Cols {
		if _, _, ok := d.DenseDomain(); ok {
			dense = append(dense, c)
		}
	}
	if len(dense) > 0 {
		parts = append(parts, "dense{"+strings.Join(normalizeStrings(dense), ",")+"}")
	}
	for _, c := range s.Corrs {
		parts = append(parts, "corr{"+c.String()+"}")
	}
	return strings.Join(parts, " ")
}

func normalizeStrings(xs []string) []string {
	out := append([]string(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// run executes breaker p (a sort, grouping or join) over its materialised
// inputs, under ctl — the governance handle of the breaker the kernel runs
// for, so a budget failure inside the kernel names it — and clamped to the
// pool's effective DOP: the one node dispatch behind every compiled breaker
// and every node of a re-planned remainder. cols restricts a join's output
// columns (see physical.JoinRel); nil keeps them all.
func (p *Plan) run(ec *exec.ExecContext, ctl *govern.Ctl, cols []string, in ...*storage.Relation) (*storage.Relation, error) {
	switch p.Op {
	case OpSort:
		w := 1
		if p.DOP > 1 {
			w = ec.EffectiveDOP(p.DOP)
		}
		return physical.SortRel(in[0], p.SortKey, p.SortKind, w, ctl)
	case OpGroup:
		o := p.Group.Opt
		if o.Parallel > 1 {
			o.Parallel = ec.EffectiveDOP(o.Parallel)
		}
		o.Ctl = ctl
		return physical.GroupByRel(in[0], p.GroupKey, p.Aggs, p.Group.Kind, o, p.KeyDom)
	case OpJoin:
		o := p.Join.Opt
		if o.Parallel > 1 {
			o.Parallel = ec.EffectiveDOP(o.Parallel)
		}
		o.Ctl = ctl
		return p.runJoin(ec, in[0], in[1], o, cols)
	default:
		return nil, fmt.Errorf("core: %v is not a pipeline breaker", p.Op)
	}
}

// runJoin executes the node's join over its materialised inputs: through
// the prebuilt index of an AV-backed join (the build phase was paid offline
// and the build-side child is by construction the bare base scan), otherwise
// with the chosen kernel in the planned build/probe roles. cols restricts the
// output columns (see physical.JoinRel); nil keeps them all. A join whose
// build may be worth keeping (offersBuild) does its two steps itself and
// offers the table in between to the context's taker; a table that is taken
// is kept out of the scratch pool.
func (p *Plan) runJoin(ec *exec.ExecContext, left, right *storage.Relation, opt physical.JoinOptions, cols []string) (*storage.Relation, error) {
	build, probe, buildKey, buildNode := left, right, p.LeftKey, p.Children[0]
	if p.Swapped {
		build, probe, buildKey, buildNode = right, left, p.RightKey, p.Children[1]
	}
	switch {
	case p.Index != nil:
		return physical.JoinRel(left, right, p.LeftKey, p.RightKey, p.Join.Kind, opt, p.KeyDom, p.Swapped, cols, p.Index.Serve(probe.NumRows()))
	case ec.Tables != nil && p.offersBuild(buildNode):
		t, err := physical.BuildJoinTable(build, buildKey, p.Join.Kind, opt, p.KeyDom)
		if err != nil {
			return nil, err
		}
		defer t.Release()
		out, err := physical.JoinRel(left, right, p.LeftKey, p.RightKey, p.Join.Kind, opt, p.KeyDom, p.Swapped, cols, t.Index())
		if err == nil && ec.Tables.OfferTable(exec.TableOffer{
			Table: buildNode.Table, Column: buildKey, Keys: t.Keys(), Index: t.Index(),
			SPH: p.Join.Kind == physical.SPHJ, Hash: opt.Hash, Bytes: t.Bytes(),
		}) {
			t.Keep()
		}
		return out, err
	default:
		return physical.JoinRel(left, right, p.LeftKey, p.RightKey, p.Join.Kind, opt, p.KeyDom, p.Swapped, cols, nil)
	}
}

// offersBuild reports whether the table this join builds over its child b
// could serve as an Algorithmic View afterwards: a serial in-memory HJ or SPHJ
// that builds, and builds over the unfiltered scan of a plain base table of at
// least a morsel of rows — below that the build costs less than the re-plan an
// adoption triggers. A spill twin never offers, spilled or not, and a
// re-planned remainder keeps its builds to itself: its scans read
// intermediates, not base tables. Whoever takes the offer checks the table
// against its own catalog; this only keeps joins that cannot qualify from
// asking.
func (p *Plan) offersBuild(b *Plan) bool {
	if p.Index != nil || p.Spill || p.Join.Opt.Parallel > 1 ||
		(p.Join.Kind != physical.HJ && p.Join.Kind != physical.SPHJ) {
		return false
	}
	return b.Op == OpScan && b.AV == "" && b.Enc == storage.EncNone && !strings.HasPrefix(b.Table, replanTable) &&
		!b.Rel.HasEncoded() && b.Rel.NumRows() >= exec.DefaultMorselSize
}

// outputColumns lists the node's output column names in order, derived
// bottom-up from the scanned relations by the same rules the kernels apply.
func (p *Plan) outputColumns() []string {
	switch p.Op {
	case OpScan:
		return p.Rel.ColumnNames()
	case OpProject:
		return p.Cols
	case OpGroup:
		cols := []string{p.GroupKey}
		for _, a := range p.Aggs {
			cols = append(cols, a.OutName())
		}
		return cols
	case OpJoin:
		left := p.Children[0].outputColumns()
		cols := append(make([]string, 0, 2*len(left)), left...)
		for _, name := range p.Children[1].outputColumns() {
			if slices.Contains(cols, name) {
				name += "_r"
			}
			cols = append(cols, name)
		}
		return cols
	default:
		return p.Children[0].outputColumns()
	}
}

// SelfCost is the node's own estimated cost: the cumulative Cost minus the
// children's cumulative costs, clamped at zero (enforcers the model priced
// at zero and float rounding can otherwise go slightly negative).
func (p *Plan) SelfCost() float64 {
	c := p.Cost
	for _, ch := range p.Children {
		c -= ch.Cost
	}
	if c < 0 {
		c = 0
	}
	return c
}

// PreOrder visits the plan tree root-first, the same order core.Compile
// lowers nodes onto operators and exec.CollectProfile walks them — which is
// what lets EXPLAIN ANALYZE zip estimates with measurements.
func (p *Plan) PreOrder(fn func(n *Plan, depth int)) {
	var rec func(n *Plan, d int)
	rec = func(n *Plan, d int) {
		fn(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	rec(p, 0)
}

// Pipeline counts: a Plan can report how many pipeline breakers it contains
// (sort, sort-based and hash-based operators break; order/SPH streaming
// kernels do not block in the Figure 2 sense). Exposed for tests and
// EXPLAIN verbosity.
func (p *Plan) PipelineBreakers() int {
	n := 0
	switch p.Op {
	case OpSort:
		n = 1
	case OpJoin:
		if p.Join.Kind == physical.SOJ || p.Join.Kind == physical.HJ || p.Join.Kind == physical.BSJ || p.Join.Kind == physical.SPHJ {
			n = 1 // build phase materialises
		}
	case OpGroup:
		if p.Group.Kind == physical.SOG || p.Group.Kind == physical.HG || p.Group.Kind == physical.BSG {
			n = 1
		}
	}
	for _, c := range p.Children {
		n += c.PipelineBreakers()
	}
	return n
}
