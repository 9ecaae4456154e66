package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dqo/internal/exec"
	"dqo/internal/faultinject"
	"dqo/internal/govern"
	"dqo/internal/logical"
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
// the winner is spliced into the running query: any breaker can switch
// algorithm family, build/probe roles, or enforcer strategy once the truth is
// on the table.
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
	// Re-planned suffixes run through the in-memory node dispatch
	// (runRemainder), which cannot lower a spill twin; over-budget suffixes
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

// suffixLabels renders a re-planned suffix bottom-up, skipping the synthetic
// intermediate scans.
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

// replan runs breaker node over its materialised inputs. Without a
// ReoptConfig, or for an index join (its build side was prepaid offline), that
// is the node dispatch alone. Otherwise, if an input's actual cardinality is
// at least the threshold off its estimate, the breaker is re-enumerated over
// the true inputs (algorithm family, build/probe roles and enforcers all up
// for re-decision) and the winning remainder runs in the planned node's place.
// Re-planning must never fail a query the planned node could run, so an
// optimiser error falls back to the planned node.
func (rc *ReoptConfig) replan(ec *exec.ExecContext, ctl *govern.Ctl, node *Plan, cols []string, op interface{ NoteReplan() }, in ...*storage.Relation) (*storage.Relation, error) {
	if rc == nil || node.Index != nil {
		return node.run(ec, ctl, cols, in...)
	}
	atomic.AddInt64(&rc.checks, 1)
	off := -1
	for i, r := range in {
		if offByFactor(float64(r.NumRows()), node.Children[i].Rows, rc.threshold()) {
			off = i
			break
		}
	}
	if off < 0 {
		return node.run(ec, ctl, cols, in...)
	}
	scans := make([]logical.Node, len(in))
	for i, r := range in {
		name := replanTable
		if len(in) == 2 {
			name += "LR"[i : i+1]
		}
		scans[i] = &logical.Scan{Table: name, Rel: r}
	}
	var ln logical.Node
	switch node.Op {
	case OpSort:
		ln = &logical.Sort{Input: scans[0], Key: node.SortKey}
	case OpGroup:
		ln = &logical.GroupBy{Input: scans[0], Key: node.GroupKey, Aggs: node.Aggs}
	default:
		ln = &logical.Join{Left: scans[0], Right: scans[1], LeftKey: node.LeftKey, RightKey: node.RightKey}
	}
	res, err := Optimize(ln, rc.replanMode())
	if err != nil || suffixLabels(res.Best) == node.Label() {
		// No alternative, or the truth confirms the planned choice.
		return node.run(ec, ctl, cols, in...)
	}
	if err := faultinject.Fire(faultinject.PointReplanSplice); err != nil {
		return nil, err
	}
	out, err := runRemainder(ec, ctl, res.Best)
	if err != nil {
		return nil, err
	}
	rc.record(node, res.Best, node.Children[off].Rows, float64(in[off].NumRows()))
	op.NoteReplan()
	return out, nil
}

// runRemainder runs a re-planned remainder over the intermediates its scans
// read, under the planned breaker's handle ctl. A re-planned logical tree
// holds only those scans, sorts, groupings and joins, so every other node goes
// through the node dispatch, keeping all its columns.
func runRemainder(ec *exec.ExecContext, ctl *govern.Ctl, p *Plan) (*storage.Relation, error) {
	if p.Op == OpScan {
		return p.Rel, nil
	}
	in := make([]*storage.Relation, len(p.Children))
	for i, c := range p.Children {
		var err error
		if in[i], err = runRemainder(ec, ctl, c); err != nil {
			return nil, err
		}
	}
	return p.run(ec, ctl, nil, in...)
}
