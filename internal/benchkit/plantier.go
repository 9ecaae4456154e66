package benchkit

import (
	"fmt"
	"io"
	"time"

	"dqo/internal/av"
	"dqo/internal/core"
	"dqo/internal/datagen"
	"dqo/internal/logical"
	"dqo/internal/sql"
	"dqo/internal/storage"
)

// PlanTierConfig parameterises the planning-tier Pareto experiment: a
// two-join star corpus (fact S joining dimension R joining dimension D)
// planned under every tier — greedy, beam-capped Deep at several widths,
// and full Deep enumeration — with planning time and execution time
// measured per (tier, query) point.
type PlanTierConfig struct {
	RRows   int // |R|; default 20,000 (the paper's dimension side)
	SRows   int // |S|; default 90,000 (the fact side)
	AGroups int // distinct R.A values = |D|; default 20,000
	Seed    uint64
	// DOP is the degree of parallelism every tier plans at (pinned so the
	// enumeration space is machine-independent); default 4.
	DOP int
	// PlanRepeats is how many times each query is re-planned per tier; the
	// minimum wall time is reported. Default 75: planning is microsecond-scale,
	// so a large repeat count buys a scheduler-noise-robust minimum cheaply.
	PlanRepeats int
	// ExecRepeats is how many times each chosen plan is executed; the
	// minimum wall time is reported. Default 3.
	ExecRepeats int
}

// DefaultPlanTier returns the default experiment scale.
func DefaultPlanTier() PlanTierConfig {
	return PlanTierConfig{
		RRows: 20000, SRows: 90000, AGroups: 20000,
		Seed: 42, DOP: 4, PlanRepeats: 75, ExecRepeats: 3,
	}
}

// PlanTierRow is one measured (tier, query) point of the Pareto sweep.
type PlanTierRow struct {
	Tier         string  `json:"tier"`
	Query        string  `json:"query"`
	PlanNS       float64 `json:"plan_ns"`      // min wall time of one Optimize call
	Alternatives int     `json:"alternatives"` // physical alternatives costed
	Kept         int     `json:"kept"`         // Pareto entries surviving pruning
	EstCost      float64 `json:"est_cost"`     // optimiser's estimate for the chosen plan
	ExecMillis   float64 `json:"exec_millis"`  // min wall time of one execution
	Plan         string  `json:"plan"`         // compact summary of the chosen plan
}

// PlanTierSummary aggregates one tier over the whole corpus, relative to
// full Deep enumeration: how much cheaper planning got and what that cost
// in execution time.
type PlanTierSummary struct {
	Tier          string  `json:"tier"`
	PlanNS        float64 `json:"plan_ns"`         // summed over the corpus
	ExecMillis    float64 `json:"exec_millis"`     // summed over the corpus
	PlanSpeedupX  float64 `json:"plan_speedup_x"`  // deep planning time / this tier's
	ExecOverheadP float64 `json:"exec_overhead_p"` // exec time vs deep, in percent (+ = slower)
}

// PlanTemplateStats is the template-cache rung: the same query shape planned
// twice with different literals through av.PlanCache.OptimizeTemplate. The
// first call misses and pays full enumeration; the second hits and rebinds
// the cached plan in O(rebind) with zero enumeration.
type PlanTemplateStats struct {
	Fingerprint     string  `json:"fingerprint"`
	MissNS          float64 `json:"miss_ns"`
	HitNS           float64 `json:"hit_ns"`
	HitAlternatives int     `json:"hit_alternatives"` // must be 0: no enumeration on a hit
	SpeedupX        float64 `json:"speedup_x"`
}

// PlanTierReport is the full experiment outcome; Config, Rows and Checks
// make up the BENCH_plantier.json artifact.
type PlanTierReport struct {
	Config    PlanTierConfig
	Rows      []PlanTierRow
	Summaries []PlanTierSummary
	Template  PlanTemplateStats
	Checks    []Check
}

// relCatalog adapts a plain relation map to the sql.Catalog interface.
type relCatalog map[string]*storage.Relation

func (c relCatalog) Table(name string) (*storage.Relation, bool) {
	r, ok := c[name]
	return r, ok
}

// planTierCatalog builds the two-join star schema: the paper's R/S pair
// (dense keys, R sorted) plus a second dimension D with one row per
// grouping value — S ⋈ R ⋈ D exercises both join families and the
// grouping/sort properties the Deep tiers enumerate over.
func planTierCatalog(cfg PlanTierConfig) relCatalog {
	fk := datagen.FKConfig{
		RRows: cfg.RRows, SRows: cfg.SRows, AGroups: cfg.AGroups,
		RSorted: true, SSorted: false, Dense: true,
	}
	r, s := datagen.FKPair(cfg.Seed, fk)
	g := make([]uint32, cfg.AGroups)
	w := make([]int64, cfg.AGroups)
	for i := range g {
		g[i] = uint32(i)
		w[i] = int64(i % 97)
	}
	gCol := storage.NewUint32("G", g)
	gCol.SetStats(storage.Stats{
		Rows: cfg.AGroups, Min: 0, Max: uint64(cfg.AGroups - 1),
		Distinct: cfg.AGroups, Sorted: true, Dense: true, Exact: true,
	})
	d := storage.MustNewRelation("D", gCol, storage.NewInt64("W", w))
	return relCatalog{"R": r, "S": s, "D": d}
}

// planTierQueries is the 2-join corpus: plain grouping, grouping with a
// second aggregate and an output order, and a filtered variant whose
// literal parameterises the template-cache rung.
func planTierQueries() []string {
	return []string{
		"SELECT R.A, COUNT(*) FROM S JOIN R ON S.R_ID = R.ID JOIN D ON R.A = D.G GROUP BY R.A",
		"SELECT R.A, COUNT(*), SUM(D.W) FROM S JOIN R ON S.R_ID = R.ID JOIN D ON R.A = D.G GROUP BY R.A ORDER BY R.A",
		"SELECT R.A, COUNT(*) FROM S JOIN R ON S.R_ID = R.ID JOIN D ON R.A = D.G WHERE R.A < 10000 GROUP BY R.A",
	}
}

// planTierModes lists the tiers of the sweep, most thorough last so the
// summary can normalise against full Deep enumeration.
func planTierModes(dop int) []struct {
	Name string
	Mode core.Mode
} {
	deep := core.DQOCalibrated()
	deep.DOP = dop
	greedy := core.Greedy()
	greedy.DOP = dop
	return []struct {
		Name string
		Mode core.Mode
	}{
		{"greedy", greedy},
		{"beam-2", deep.WithBeam(2)},
		{"beam-8", deep.WithBeam(8)},
		{"deep", deep},
	}
}

// RunPlanTier measures the planning-time vs execution-time Pareto frontier
// of the planning tiers over the two-join corpus, then demonstrates the
// template-cache rung. Results print as a table; the returned report is the
// machine-readable artifact.
func RunPlanTier(cfg PlanTierConfig, w io.Writer) (*PlanTierReport, error) {
	if cfg.PlanRepeats <= 0 {
		cfg.PlanRepeats = 25
	}
	if cfg.ExecRepeats <= 0 {
		cfg.ExecRepeats = 3
	}
	if cfg.DOP <= 0 {
		cfg.DOP = 4
	}
	cat := planTierCatalog(cfg)
	queries := planTierQueries()
	tiers := planTierModes(cfg.DOP)

	fmt.Fprintf(w, "# planning-tier Pareto sweep: 2-join corpus (S ⋈ R ⋈ D), |R|=%d |S|=%d |D|=%d dop=%d\n",
		cfg.RRows, cfg.SRows, cfg.AGroups, cfg.DOP)
	fmt.Fprintf(w, "%-8s %-4s %12s %6s %6s %12s %10s  %s\n",
		"tier", "q", "plan", "alts", "kept", "est cost", "exec ms", "plan")

	report := &PlanTierReport{Config: cfg}
	perTier := map[string]*PlanTierSummary{}
	for _, tier := range tiers {
		sum := &PlanTierSummary{Tier: tier.Name}
		perTier[tier.Name] = sum
		report.Summaries = append(report.Summaries, PlanTierSummary{}) // placeholder, filled below
		for qi, query := range queries {
			row, err := runPlanTierPoint(tier.Name, tier.Mode, query, cat, cfg)
			if err != nil {
				return nil, fmt.Errorf("benchkit: %s/q%d: %w", tier.Name, qi+1, err)
			}
			report.Rows = append(report.Rows, row)
			sum.PlanNS += row.PlanNS
			sum.ExecMillis += row.ExecMillis
			fmt.Fprintf(w, "%-8s q%-3d %12s %6d %6d %12.0f %10.2f  %s\n",
				tier.Name, qi+1, time.Duration(row.PlanNS).Round(time.Nanosecond),
				row.Alternatives, row.Kept, row.EstCost, row.ExecMillis, row.Plan)
		}
	}

	deepSum := perTier["deep"]
	for i, tier := range tiers {
		sum := perTier[tier.Name]
		if sum.PlanNS > 0 {
			sum.PlanSpeedupX = deepSum.PlanNS / sum.PlanNS
		}
		if deepSum.ExecMillis > 0 {
			sum.ExecOverheadP = 100 * (sum.ExecMillis - deepSum.ExecMillis) / deepSum.ExecMillis
		}
		report.Summaries[i] = *sum
	}

	fmt.Fprintf(w, "\n%-8s %12s %10s %14s %14s\n", "tier", "plan total", "exec ms", "plan speedup", "exec overhead")
	for _, sum := range report.Summaries {
		fmt.Fprintf(w, "%-8s %12s %10.2f %13.1fx %+13.1f%%\n",
			sum.Tier, time.Duration(sum.PlanNS).Round(time.Nanosecond), sum.ExecMillis,
			sum.PlanSpeedupX, sum.ExecOverheadP)
	}

	tmpl, err := runPlanTemplate(cat, cfg)
	if err != nil {
		return nil, err
	}
	report.Template = tmpl
	fmt.Fprintf(w, "\n# template cache: %s\n", tmpl.Fingerprint)
	fmt.Fprintf(w, "miss (full enumeration) %12s\nhit  (rebind only)      %12s  alternatives=%d  %.0fx faster\n",
		time.Duration(tmpl.MissNS).Round(time.Nanosecond),
		time.Duration(tmpl.HitNS).Round(time.Nanosecond),
		tmpl.HitAlternatives, tmpl.SpeedupX)

	report.Checks = checkPlanTier(report)
	return report, nil
}

// runPlanTierPoint plans one query under one tier (min of PlanRepeats) and
// executes the chosen plan (min of ExecRepeats).
func runPlanTierPoint(tier string, mode core.Mode, query string, cat relCatalog, cfg PlanTierConfig) (PlanTierRow, error) {
	node, err := bindQuery(query, cat)
	if err != nil {
		return PlanTierRow{}, err
	}
	// One untimed warm-up: the first planning call of the process pays
	// allocator and cache cold-start that would bias the first tier's row.
	if _, err := core.Optimize(node, mode); err != nil {
		return PlanTierRow{}, err
	}
	var res *core.Result
	minNS := float64(0)
	for i := 0; i < cfg.PlanRepeats; i++ {
		start := time.Now()
		r, err := core.Optimize(node, mode)
		ns := float64(time.Since(start).Nanoseconds())
		if err != nil {
			return PlanTierRow{}, err
		}
		if res == nil || ns < minNS {
			minNS = ns
		}
		res = r
	}
	execMS := 0.0
	for i := 0; i < cfg.ExecRepeats; i++ {
		ms, _, err := timePlan(res.Best, 0)
		if err != nil {
			return PlanTierRow{}, err
		}
		if i == 0 || ms < execMS {
			execMS = ms
		}
	}
	return PlanTierRow{
		Tier:         tier,
		Query:        query,
		PlanNS:       minNS,
		Alternatives: res.Stats.Alternatives,
		Kept:         res.Stats.Kept,
		EstCost:      res.Best.Cost,
		ExecMillis:   execMS,
		Plan:         planSummary(res.Best),
	}, nil
}

// runPlanTemplate plans the parameterised corpus query twice with different
// literals through the template cache: the first call misses and enumerates,
// the second hits and rebinds.
func runPlanTemplate(cat relCatalog, cfg PlanTierConfig) (PlanTemplateStats, error) {
	deep := core.DQOCalibrated()
	deep.DOP = cfg.DOP
	pc := av.NewPlanCache()
	shape := "SELECT R.A, COUNT(*) FROM S JOIN R ON S.R_ID = R.ID JOIN D ON R.A = D.G WHERE R.A < %d GROUP BY R.A"

	var out PlanTemplateStats
	for i, lit := range []int{10000, 2500} {
		query := fmt.Sprintf(shape, lit)
		stmt, err := sql.Parse(query)
		if err != nil {
			return out, err
		}
		node, err := sql.Bind(stmt, cat)
		if err != nil {
			return out, err
		}
		key := sql.Fingerprint(stmt)
		out.Fingerprint = key
		start := time.Now()
		res, hit, err := pc.OptimizeTemplate(key, node, deep)
		ns := float64(time.Since(start).Nanoseconds())
		if err != nil {
			return out, err
		}
		switch i {
		case 0:
			if hit {
				return out, fmt.Errorf("benchkit: first template lookup hit a cold cache")
			}
			out.MissNS = ns
		case 1:
			if !hit {
				return out, fmt.Errorf("benchkit: second template lookup missed")
			}
			out.HitNS = ns
			out.HitAlternatives = res.Stats.Alternatives
		}
	}
	if out.HitNS > 0 {
		out.SpeedupX = out.MissNS / out.HitNS
	}
	return out, nil
}

// bindQuery parses and binds one SQL string against the catalog.
func bindQuery(query string, cat relCatalog) (logical.Node, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return sql.Bind(stmt, cat)
}

// greedyPlanBudgetNS is what the greedy tier promises in absolute terms: the
// three corpus statements planned in under 50 us in total. Its ratio to full
// Deep is reported, not checked: it shrinks whenever exact enumeration gets
// cheaper (33x before site tables, about 10x after), which is no fault of the
// greedy tier.
const greedyPlanBudgetNS = 50_000

// checkPlanTier evaluates the experiment's acceptance criteria: greedy
// planning within its absolute budget, costing at most 15% in execution
// time, and template-cache hits re-planning with zero enumeration.
func checkPlanTier(r *PlanTierReport) []Check {
	var greedy PlanTierSummary
	for _, s := range r.Summaries {
		if s.Tier == "greedy" {
			greedy = s
		}
	}
	return []Check{
		{greedy.PlanNS < greedyPlanBudgetNS, fmt.Sprintf("greedy plans the corpus in %.1f us, %.0fx faster than full deep (want < %d us)",
			greedy.PlanNS/1e3, greedy.PlanSpeedupX, greedyPlanBudgetNS/1000)},
		{greedy.ExecOverheadP <= 15, fmt.Sprintf("greedy execution %+.1f%% vs full deep (want <= +15%%)", greedy.ExecOverheadP)},
		{r.Template.HitAlternatives == 0, fmt.Sprintf("template-cache hit rebinds with %d alternatives (want 0)", r.Template.HitAlternatives)},
	}
}
