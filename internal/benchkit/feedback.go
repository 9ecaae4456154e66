package benchkit

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"dqo/internal/core"
	"dqo/internal/exec"
	"dqo/internal/feedback"
	"dqo/internal/naive"
	"dqo/internal/storage"
)

// FeedbackConfig parameterises the estimate→measure loop experiment: a
// skewed corpus planned and executed cold (heuristic estimates, mid-query
// re-planning armed), then again after one warm-up pass has harvested the
// true cardinalities into a feedback store. The deliverables are plan-switch
// counts — mid-query splices cold, optimiser-level switches warm — and the
// executed-time delta feedback buys.
type FeedbackConfig struct {
	FactRows int    // |F|; default 2,000,000
	Groups   int    // distinct F.k values; default 64
	Keep     int    // rows the skewed filter keeps (its estimate is FactRows/3); default 2
	Seed     uint64 // reserved for future skew variants; the corpus is deterministic
	// ExecRepeats is how many times each plan execution is timed; the
	// minimum wall time is reported. Default 3.
	ExecRepeats int
}

// DefaultFeedback returns the default experiment scale.
func DefaultFeedback() FeedbackConfig {
	return FeedbackConfig{FactRows: 2_000_000, Groups: 64, Keep: 2, Seed: 42, ExecRepeats: 3}
}

// FeedbackRow is one corpus query measured cold and warm.
type FeedbackRow struct {
	Query       string  `json:"query"`
	ColdPlan    string  `json:"cold_plan"`
	WarmPlan    string  `json:"warm_plan"`
	Switched    bool    `json:"switched"`     // optimiser chose differently once warmed
	ColdReplans int     `json:"cold_replans"` // mid-query splices during the cold run
	ColdMillis  float64 `json:"cold_millis"`
	WarmMillis  float64 `json:"warm_millis"`
	DeltaP      float64 `json:"delta_p"` // warm vs cold, percent (negative = faster warm)
}

// FeedbackReport is the full experiment outcome; Config, Rows and Checks
// make up the BENCH_feedback.json artifact.
type FeedbackReport struct {
	Config    FeedbackConfig
	Rows      []FeedbackRow
	StoreView string // the warmed store, human-readable
	Checks    []Check
}

// feedbackCatalog builds the skewed corpus: a fact table whose uniform v
// column makes `v < Keep` a catastrophic misestimate (heuristic: rows/3;
// truth: Keep), with sparse grouping keys so the dense-domain shortcuts stay
// out and the grouping decision is purely hash-vs-sort — the decision the
// misestimate flips. Dm is a matching dimension for the join variant.
func feedbackCatalog(cfg FeedbackConfig) relCatalog {
	ks := make([]uint32, cfg.FactRows)
	vs := make([]uint32, cfg.FactRows)
	for i := 0; i < cfg.FactRows; i++ {
		ks[i] = uint32((i % cfg.Groups) * 97)
		vs[i] = uint32(i)
	}
	f := storage.MustNewRelation("F",
		storage.NewUint32("k", ks), storage.NewUint32("v", vs))
	dg := make([]uint32, cfg.Groups)
	dw := make([]int64, cfg.Groups)
	for i := range dg {
		dg[i] = uint32(i * 97)
		dw[i] = int64(i)
	}
	d := storage.MustNewRelation("Dm",
		storage.NewUint32("g", dg), storage.NewInt64("w", dw))
	return relCatalog{"F": f, "Dm": d}
}

// feedbackQueries is the corpus: the skewed filter feeding a grouping (the
// flip case), the same shape through a join, and an unfiltered control whose
// estimates are already exact — it must NOT switch, cold or warm.
func feedbackQueries(cfg FeedbackConfig) []string {
	return []string{
		fmt.Sprintf("SELECT k, COUNT(*) FROM F WHERE v < %d GROUP BY k", cfg.Keep),
		fmt.Sprintf("SELECT F.k, COUNT(*) FROM F JOIN Dm ON F.k = Dm.g WHERE F.v < %d GROUP BY F.k", cfg.Keep),
		"SELECT k, COUNT(*) FROM F GROUP BY k",
	}
}

// RunFeedback measures the closed loop: cold planning with mid-query
// re-planning armed, one harvesting pass, then warm planning through the
// populated store. Results print as a table; the returned report is the
// machine-readable artifact.
func RunFeedback(cfg FeedbackConfig, w io.Writer) (*FeedbackReport, error) {
	if cfg.FactRows <= 0 {
		cfg.FactRows = 2_000_000
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 64
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 2
	}
	if cfg.ExecRepeats <= 0 {
		cfg.ExecRepeats = 3
	}
	cat := feedbackCatalog(cfg)
	queries := feedbackQueries(cfg)
	st := feedback.NewStore()

	fmt.Fprintf(w, "# feedback loop: skewed corpus cold vs warm, |F|=%d groups=%d filter keeps %d rows (estimated %d)\n",
		cfg.FactRows, cfg.Groups, cfg.Keep, cfg.FactRows/3)

	report := &FeedbackReport{Config: cfg}
	for qi, query := range queries {
		row := FeedbackRow{Query: query}
		node, err := bindQuery(query, cat)
		if err != nil {
			return nil, fmt.Errorf("benchkit: q%d: %w", qi+1, err)
		}

		// Cold: heuristic estimates, re-planning armed so the executor can
		// rescue the misestimate mid-query.
		coldMode := core.DQO()
		cold, err := core.Optimize(node, coldMode)
		if err != nil {
			return nil, err
		}
		row.ColdPlan = planSummary(cold.Best)
		coldRel, coldMS, replans, err := timeReopt(cold, cfg.ExecRepeats)
		if err != nil {
			return nil, err
		}
		row.ColdMillis = coldMS
		row.ColdReplans = replans

		// Harvest one straight (non-reoptimised) run: the profile of the
		// plan the optimiser actually chose is what teaches the store.
		_, prof, err := core.ExecuteContext(context.Background(), cold.Best, core.ExecOptions{})
		if err != nil {
			return nil, err
		}
		core.HarvestFeedback(st, cold.Best, prof)

		// Warm: same query planned through the populated store.
		warmMode := core.DQO()
		warmMode.Feedback = st
		warm, err := core.Optimize(node, warmMode)
		if err != nil {
			return nil, err
		}
		row.WarmPlan = planSummary(warm.Best)
		row.Switched = row.WarmPlan != row.ColdPlan
		warmRel, warmMS, err := timeStraight(warm.Best, cfg.ExecRepeats)
		if err != nil {
			return nil, err
		}
		row.WarmMillis = warmMS
		if coldMS > 0 {
			row.DeltaP = 100 * (warmMS - coldMS) / coldMS
		}
		if !slices.Equal(naive.Rows(coldRel), naive.Rows(warmRel)) {
			return nil, fmt.Errorf("benchkit: q%d: warm plan changed the result", qi+1)
		}
		report.Rows = append(report.Rows, row)
	}

	fmt.Fprintf(w, "%-4s %-8s %8s %10s %10s %8s  %s\n",
		"q", "switched", "replans", "cold ms", "warm ms", "delta", "cold plan -> warm plan")
	for qi, row := range report.Rows {
		fmt.Fprintf(w, "q%-3d %-8v %8d %10.2f %10.2f %+7.1f%%  %s -> %s\n",
			qi+1, row.Switched, row.ColdReplans, row.ColdMillis, row.WarmMillis,
			row.DeltaP, row.ColdPlan, row.WarmPlan)
	}
	report.StoreView = st.Snapshot().String()
	fmt.Fprintf(w, "\n# warmed store:\n%s", report.StoreView)

	report.Checks = checkFeedback(report)
	return report, nil
}

// timeReopt executes a plan with mid-query re-planning armed (min of
// repeats) and reports the splice count of one run.
func timeReopt(res *core.Result, repeats int) (*storage.Relation, float64, int, error) {
	var rel *storage.Relation
	var best float64
	replans := 0
	for i := 0; i < repeats; i++ {
		rc := &core.ReoptConfig{Mode: res.Mode}
		root, err := core.CompileReopt(res.Best, rc)
		if err != nil {
			return nil, 0, 0, err
		}
		start := time.Now()
		r, err := exec.Run(exec.NewExecContext(context.Background(), 0, 0), root)
		if err != nil {
			return nil, 0, 0, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000.0
		if i == 0 || ms < best {
			best = ms
		}
		rel = r
		replans = len(rc.Events())
	}
	return rel, best, replans, nil
}

// timeStraight executes a plan without re-planning (min of repeats).
func timeStraight(p *core.Plan, repeats int) (*storage.Relation, float64, error) {
	var rel *storage.Relation
	var best float64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		r, _, err := core.ExecuteContext(context.Background(), p, core.ExecOptions{})
		if err != nil {
			return nil, 0, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000.0
		if i == 0 || ms < best {
			best = ms
		}
		rel = r
	}
	return rel, best, nil
}

// checkFeedback evaluates the experiment's acceptance criteria.
func checkFeedback(r *FeedbackReport) []Check {
	switched, replanned := 0, 0
	for _, row := range r.Rows {
		if row.Switched {
			switched++
		}
		replanned += row.ColdReplans
	}
	control := r.Rows[len(r.Rows)-1]
	return []Check{
		{switched >= 1, fmt.Sprintf("at least one corpus query switches plan once the store is warm (%d/%d switched)", switched, len(r.Rows))},
		{replanned >= 1, fmt.Sprintf("the cold misestimate triggers mid-query re-planning (%d splices)", replanned)},
		{!control.Switched, "the accurately-estimated control query keeps its plan warm"},
		{strings.Contains(r.StoreView, "cardinality corrections"), "the warmed store holds cardinality corrections"},
	}
}
