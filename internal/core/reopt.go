package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dqo/internal/exec"
	"dqo/internal/faultinject"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/storage"
)

// DefaultReoptThreshold is the actual/estimated misestimation factor that
// triggers mid-query re-planning when the caller does not choose one.
const DefaultReoptThreshold = 10

// replanTable names the synthetic base relation a re-planned suffix scans:
// the materialised intermediate a breaker just drained.
const replanTable = "⟨intermediate⟩"

// ReplanEvent records one mid-query re-planning decision taken at a
// pipeline-breaker boundary.
type ReplanEvent struct {
	Operator string  // label of the planned breaker whose kernel re-planned
	To       string  // the spliced replacement suffix, bottom-up
	EstRows  float64 // planned input cardinality of the triggering side
	ActRows  float64 // materialised input cardinality of the triggering side
}

func (e ReplanEvent) String() string {
	return fmt.Sprintf("%s: est_rows=%.0f act_rows=%.0f -> %s", e.Operator, e.EstRows, e.ActRows, e.To)
}

// ReoptConfig enables mid-query re-planning at pipeline-breaker boundaries:
// when a breaker (hash build, sort, aggregation input) has materialised its
// input and the actual cardinality is at least Threshold× off the
// optimiser's estimate in either direction, the remaining plan suffix is
// re-enumerated with the true cardinality under the active planning tier
// (deep / beam-capped / greedy, with the mode's feedback store if any) and
// the winner is spliced into the running query. This generalises the
// grouping-only re-decision of ExecuteAdaptive into the morsel executor: any
// breaker can switch algorithm family, build/probe roles, or enforcer
// strategy once the truth is on the table.
//
// One ReoptConfig serves one query execution; it is safe for the concurrent
// breaker kernels of a bushy plan.
type ReoptConfig struct {
	// Mode is the planning mode whose tier re-enumerates suffixes
	// (normally the mode that produced the plan, Result.Mode).
	Mode Mode
	// Threshold is the misestimation factor that triggers re-planning;
	// values <= 1 select DefaultReoptThreshold.
	Threshold float64

	checks int64 // breaker boundaries inspected
	mu     sync.Mutex
	events []ReplanEvent
}

// Events returns the re-planning decisions taken so far, in splice order.
func (rc *ReoptConfig) Events() []ReplanEvent {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]ReplanEvent(nil), rc.events...)
}

// Checks returns how many breaker boundaries were inspected.
func (rc *ReoptConfig) Checks() int64 { return atomic.LoadInt64(&rc.checks) }

func (rc *ReoptConfig) threshold() float64 {
	if rc.Threshold > 1 {
		return rc.Threshold
	}
	return DefaultReoptThreshold
}

// replanMode strips catalog-bound providers from the active mode: re-planned
// suffixes scan in-memory intermediates, which no Algorithmic View or
// cracked index describes. Tier, beam width, model, DOP, and feedback store
// carry over unchanged (model tuning is idempotent, so an already-tuned
// model is not re-wrapped).
func (rc *ReoptConfig) replanMode() Mode {
	m := rc.Mode
	m.Scans, m.Indexes, m.CrackedIdx = nil, nil, nil
	// Re-planned suffixes execute as direct in-memory kernel invocations
	// (execReplanned), which cannot lower a spill twin; over-budget suffixes
	// keep the smallest in-memory alternative, as before spilling existed.
	m.Spill = false
	return m
}

func (rc *ReoptConfig) record(node *Plan, np *Plan, est, act float64) {
	ev := ReplanEvent{Operator: node.Label(), To: suffixLabels(np), EstRows: est, ActRows: act}
	rc.mu.Lock()
	rc.events = append(rc.events, ev)
	rc.mu.Unlock()
}

// offByFactor reports whether actual and estimated cardinalities disagree by
// at least factor t in either direction; both are clamped to one row so
// empty inputs compare smoothly.
func offByFactor(act, est, t float64) bool {
	if act < 1 {
		act = 1
	}
	if est < 1 {
		est = 1
	}
	return act >= est*t || est >= act*t
}

// suffixLabels renders a re-planned suffix bottom-up (the Summary reading
// order), skipping the synthetic intermediate scans.
func suffixLabels(p *Plan) string {
	var labels []string
	p.PreOrder(func(n *Plan, _ int) {
		if n.Op != OpScan {
			labels = append(labels, n.Label())
		}
	})
	if len(labels) == 0 {
		return p.Label()
	}
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	return strings.Join(labels, " -> ")
}

// CompileReopt lowers an optimised plan like Compile but wraps every
// pipeline-breaker kernel with a re-planning check (see ReoptConfig). A nil
// rc is identical to Compile.
func CompileReopt(p *Plan, rc *ReoptConfig) (exec.Operator, error) {
	return compileNode(p, rc, nil)
}

// replan1 is the re-planning wrapper around a single-input breaker kernel
// (sort or aggregation). If the materialised input's cardinality is within
// tolerance the planned kernel runs untouched; otherwise the remaining
// suffix is re-enumerated over the true input and the winner executed in its
// place. Re-planning must never fail a query the planned kernel could run,
// so an optimiser error falls back to the planned kernel.
func (rc *ReoptConfig) replan1(ec *exec.ExecContext, node *Plan, in *storage.Relation,
	orig func(*exec.ExecContext, *storage.Relation) (*storage.Relation, error),
	noteReplan func()) (*storage.Relation, error) {

	atomic.AddInt64(&rc.checks, 1)
	act, est := float64(in.NumRows()), node.Children[0].Rows
	if !offByFactor(act, est, rc.threshold()) {
		return orig(ec, in)
	}
	scan := &logical.Scan{Table: replanTable, Rel: in}
	var ln logical.Node
	switch node.Op {
	case OpSort:
		ln = &logical.Sort{Input: scan, Key: node.SortKey}
	case OpGroup:
		ln = &logical.GroupBy{Input: scan, Key: node.GroupKey, Aggs: node.Aggs}
	default:
		return orig(ec, in)
	}
	res, err := Optimize(ln, rc.replanMode())
	if err != nil {
		return orig(ec, in)
	}
	if suffixLabels(res.Best) == node.Label() {
		// The truth confirms the planned choice; nothing to splice.
		return orig(ec, in)
	}
	if err := faultinject.Fire(faultinject.PointReplanSplice); err != nil {
		return nil, err
	}
	out, err := execReplanned(ec, res.Best)
	if err != nil {
		return nil, err
	}
	rc.record(node, res.Best, est, act)
	if noteReplan != nil {
		noteReplan()
	}
	return out, nil
}

// replan2 is the re-planning wrapper around a join kernel. Both inputs are
// materialised when it runs; if either side's cardinality is out of
// tolerance, the join is re-enumerated over the true inputs — algorithm
// family, build/probe roles, and enforcers all up for re-decision.
func (rc *ReoptConfig) replan2(ec *exec.ExecContext, node *Plan, l, r *storage.Relation,
	orig func(*exec.ExecContext, *storage.Relation, *storage.Relation) (*storage.Relation, error),
	noteReplan func()) (*storage.Relation, error) {

	atomic.AddInt64(&rc.checks, 1)
	actL, estL := float64(l.NumRows()), node.Children[0].Rows
	actR, estR := float64(r.NumRows()), node.Children[1].Rows
	t := rc.threshold()
	offL, offR := offByFactor(actL, estL, t), offByFactor(actR, estR, t)
	if !offL && !offR {
		return orig(ec, l, r)
	}
	ln := &logical.Join{
		Left:    &logical.Scan{Table: replanTable + "L", Rel: l},
		Right:   &logical.Scan{Table: replanTable + "R", Rel: r},
		LeftKey: node.LeftKey, RightKey: node.RightKey,
	}
	res, err := Optimize(ln, rc.replanMode())
	if err != nil {
		return orig(ec, l, r)
	}
	if suffixLabels(res.Best) == node.Label() {
		return orig(ec, l, r)
	}
	if err := faultinject.Fire(faultinject.PointReplanSplice); err != nil {
		return nil, err
	}
	out, err := execReplanned(ec, res.Best)
	if err != nil {
		return nil, err
	}
	est, act := estL, actL
	if offR && !offL {
		est, act = estR, actR
	}
	rc.record(node, res.Best, est, act)
	if noteReplan != nil {
		noteReplan()
	}
	return out, nil
}

// execReplanned runs a re-planned suffix over its already-materialised
// inputs. The suffix bottoms out at scans of in-memory intermediates, so
// lowering is a direct recursive kernel invocation threaded with the query's
// governance handle (cancellation + memory budget) and effective DOP —
// mirroring the kernels Compile builds, without re-entering the morsel
// drive loop.
func execReplanned(ec *exec.ExecContext, p *Plan) (*storage.Relation, error) {
	kids := make([]*storage.Relation, len(p.Children))
	for i, c := range p.Children {
		r, err := execReplanned(ec, c)
		if err != nil {
			return nil, err
		}
		kids[i] = r
	}
	switch p.Op {
	case OpScan:
		return p.Rel, nil
	case OpFilter:
		return physical.FilterRel(kids[0], p.Pred)
	case OpProject:
		return physical.ProjectRel(kids[0], p.Cols...)
	case OpSort:
		w := 1
		if p.DOP > 1 {
			w = ec.EffectiveDOP(p.DOP)
		}
		return physical.SortRelParCtl(kids[0], p.SortKey, p.SortKind, w, ec.Ctl())
	case OpGroup:
		o := p.Group.Opt
		if o.Parallel > 1 {
			o.Parallel = ec.EffectiveDOP(o.Parallel)
		}
		o.Ctl = ec.Ctl()
		return physical.GroupByRelDom(kids[0], p.GroupKey, p.Aggs, p.Group.Kind, o, p.KeyDom)
	case OpJoin:
		o := p.Join.Opt
		if o.Parallel > 1 {
			o.Parallel = ec.EffectiveDOP(o.Parallel)
		}
		o.Ctl = ec.Ctl()
		return p.runJoin(nil, kids[0], kids[1], o, nil) // a spliced remainder keeps its builds to itself
	default:
		return nil, fmt.Errorf("core: cannot execute re-planned operator %v", p.Op)
	}
}
