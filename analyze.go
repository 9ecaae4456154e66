package dqo

import (
	"fmt"
	"strings"
	"time"

	"dqo/internal/core"
	"dqo/internal/exec"
	"dqo/internal/obs"
)

// analyzeReport renders the EXPLAIN ANALYZE section for an executed result:
// a header with the mode and measured phase times, then the per-operator
// estimated-vs-measured table with misestimation factors.
func analyzeReport(mode Mode, res *Result) string {
	pt := res.phases
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s", mode)
	if pt.tier != "" {
		fmt.Fprintf(&b, " tier=%s", pt.tier)
	}
	if pt.beam > 0 {
		fmt.Fprintf(&b, " beam=%d", pt.beam)
	}
	if pt.cacheHit {
		b.WriteString(" plan-cache=hit")
	}
	total := pt.parse + pt.bind + pt.optimise + pt.compile + pt.admission + pt.execute
	fmt.Fprintf(&b, "  parse=%s bind=%s optimise=%s compile=%s admission=%s execute=%s\n",
		rd(pt.parse), rd(pt.bind), rd(pt.optimise), rd(pt.compile), rd(pt.admission), rd(pt.execute))
	b.WriteString(obs.RenderAnalyze(analyzeRows(res), total))
	if evs := res.Replans(); len(evs) > 0 {
		b.WriteString("replanned:\n")
		for _, ev := range evs {
			fmt.Fprintf(&b, "  %s\n", ev.String())
		}
	}
	return b.String()
}

func rd(d time.Duration) string { return d.Round(time.Microsecond).String() }

// planRow is one plan node flattened in pre-order, awaiting its match in
// the execution profile.
type planRow struct {
	node     *core.Plan
	consumed bool
}

// analyzeRows zips the optimiser's plan (estimates) with the execution
// profile (measurements). Both are pre-order walks of the same tree shape —
// core.Compile labels every operator with its plan node's Label() — so each
// profile row claims the first unconsumed plan node with a matching label.
// Executor-only rows (LIMIT, the "Pipeline" driver) match nothing and
// render without estimates.
func analyzeRows(res *Result) []obs.AnalyzeRow {
	var plans []planRow
	if res.plan != nil && res.plan.Best != nil {
		res.plan.Best.PreOrder(func(n *core.Plan, _ int) {
			plans = append(plans, planRow{node: n})
		})
	}
	prof := res.profile()
	rows := make([]obs.AnalyzeRow, 0, len(prof))
	for i, s := range prof {
		row := obs.AnalyzeRow{
			Label:       s.Label,
			Depth:       s.Depth,
			ActRows:     s.RowsOut,
			ActSelf:     s.Self,
			ActWall:     s.Wall,
			ActBytes:    subtreePeak(prof, i),
			Batches:     s.Batches,
			DOP:         s.DOP,
			Replanned:   s.Replans > 0,
			SpillBytes:  s.SpillBytes,
			SpillParts:  s.SpillParts,
			SpillPasses: s.SpillPasses,
		}
		for j := range plans {
			if !plans[j].consumed && plans[j].node.Label() == s.Label {
				plans[j].consumed = true
				n := plans[j].node
				row.HasEst = true
				row.EstRows = n.Rows
				row.EstCost = n.SelfCost()
				row.EstBytes = n.Mem
				break
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// subtreePeak is the largest per-operator PeakBytes in the profile subtree
// rooted at index i — the measured counterpart of Plan.Mem, which estimates
// the peak resident bytes anywhere in the subtree.
func subtreePeak(prof exec.Profile, i int) int64 {
	max := prof[i].PeakBytes
	d := prof[i].Depth
	for j := i + 1; j < len(prof) && prof[j].Depth > d; j++ {
		if prof[j].PeakBytes > max {
			max = prof[j].PeakBytes
		}
	}
	return max
}
