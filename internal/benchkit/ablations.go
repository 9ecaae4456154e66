package benchkit

import (
	"fmt"
	"io"
	"time"

	"dqo/internal/av"
	"dqo/internal/core"
	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/hashtable"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/sortx"
)

// AblationRow is one measured point of an ablation sweep.
type AblationRow struct {
	Experiment string
	Variant    string
	Groups     int
	Millis     float64
}

// RunAblationHashTable measures HG with every hash-table scheme and hash
// function (ablation A1: the paper's "which hash table exactly?" point).
func RunAblationHashTable(n, groups int, seed uint64, w io.Writer) ([]AblationRow, error) {
	q := datagen.Quadrant{Sorted: false, Dense: false}
	keys := datagen.GroupingKeys(seed, n, groups, q)
	vals := makeVals(seed, n)
	dom := groundDomain(keys, groups, q)
	fmt.Fprintf(w, "# A1: HG molecule sweep, N=%d groups=%d (unsorted-sparse)\n", n, groups)
	fmt.Fprintf(w, "%-14s %-14s %12s\n", "scheme", "hashfunc", "runtime_ms")
	var rows []AblationRow
	for _, scheme := range hashtable.Schemes() {
		for _, fn := range hashtable.Funcs() {
			start := time.Now()
			if _, err := physical.Group(physical.HG, keys, vals, dom, physical.GroupOptions{Scheme: scheme, Hash: fn}); err != nil {
				return nil, err
			}
			ms := float64(time.Since(start).Microseconds()) / 1000.0
			rows = append(rows, AblationRow{Experiment: "A1", Variant: scheme.String() + "/" + fn.String(), Groups: groups, Millis: ms})
			fmt.Fprintf(w, "%-14s %-14s %12.2f\n", scheme, fn, ms)
		}
	}
	return rows, nil
}

// RunAblationSort measures SOG with each sort molecule (ablation A2).
func RunAblationSort(n, groups int, seed uint64, w io.Writer) ([]AblationRow, error) {
	q := datagen.Quadrant{Sorted: false, Dense: false}
	keys := datagen.GroupingKeys(seed, n, groups, q)
	vals := makeVals(seed, n)
	dom := groundDomain(keys, groups, q)
	fmt.Fprintf(w, "# A2: SOG sort-molecule sweep, N=%d groups=%d\n", n, groups)
	fmt.Fprintf(w, "%-14s %12s\n", "sort", "runtime_ms")
	var rows []AblationRow
	for _, sk := range sortx.Kinds() {
		start := time.Now()
		if _, err := physical.Group(physical.SOG, keys, vals, dom, physical.GroupOptions{Sort: sk}); err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000.0
		rows = append(rows, AblationRow{Experiment: "A2", Variant: sk.String(), Groups: groups, Millis: ms})
		fmt.Fprintf(w, "%-14s %12.2f\n", sk, ms)
	}
	return rows, nil
}

// RunAblationParallel measures SPHG's load loop with 1..maxWorkers workers
// (ablation A3: the Figure 3(e) parallel-loop molecule).
func RunAblationParallel(n, groups, maxWorkers int, seed uint64, w io.Writer) ([]AblationRow, error) {
	q := datagen.Quadrant{Sorted: false, Dense: true}
	keys := datagen.GroupingKeys(seed, n, groups, q)
	vals := makeVals(seed, n)
	dom := groundDomain(keys, groups, q)
	fmt.Fprintf(w, "# A3: SPHG load-loop parallelism, N=%d groups=%d\n", n, groups)
	fmt.Fprintf(w, "%-10s %12s\n", "workers", "runtime_ms")
	var rows []AblationRow
	for p := 1; p <= maxWorkers; p *= 2 {
		start := time.Now()
		if _, err := physical.Group(physical.SPHG, keys, vals, dom, physical.GroupOptions{Parallel: p}); err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000.0
		rows = append(rows, AblationRow{Experiment: "A3", Variant: fmt.Sprintf("workers=%d", p), Groups: groups, Millis: ms})
		fmt.Fprintf(w, "%-10d %12.2f\n", p, ms)
	}
	return rows, nil
}

// RunAblationEngine compares execution models for the same grouping
// (ablation A5): the classical operator-at-a-time kernel vs the paper's
// Figure 2 producer-bundle engine with its partitioning strategies.
func RunAblationEngine(n, groups int, seed uint64, w io.Writer) ([]AblationRow, error) {
	q := datagen.Quadrant{Sorted: false, Dense: true}
	rel := datagen.GroupingRelation(seed, n, groups, q)
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}
	fmt.Fprintf(w, "# A5: execution model — operator kernel vs Figure 2 bundle engine, N=%d groups=%d\n", n, groups)
	fmt.Fprintf(w, "%-28s %12s\n", "engine", "runtime_ms")
	var rows []AblationRow
	record := func(variant string, fn func() error) error {
		start := time.Now()
		if err := fn(); err != nil {
			return err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000.0
		rows = append(rows, AblationRow{Experiment: "A5", Variant: variant, Groups: groups, Millis: ms})
		fmt.Fprintf(w, "%-28s %12.2f\n", variant, ms)
		return nil
	}
	if err := record("operator:SPHG", func() error {
		_, err := physical.GroupByRel(rel, "key", aggs, physical.SPHG, physical.GroupOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	for _, strat := range []physical.PartitionStrategy{physical.PartitionBySPH, physical.PartitionByHash} {
		strat := strat
		if err := record("bundle:"+strat.String(), func() error {
			_, err := physical.GroupByRelBundle(rel, "key", aggs, strat, hashtable.Murmur3Fin, 1, props.Domain{})
			return err
		}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// AVAblation reports optimisation-time and plan-cost effects of Algorithmic
// Views (ablation A4).
type AVAblation struct {
	PlainOptMicros     float64 // mean optimisation time, no AVs
	CachedOptMicros    float64 // mean lookup time with the plan-cache AV
	PlainCost          float64 // best estimated plan cost without AVs
	WithAVCost         float64 // best estimated plan cost with structure AVs
	AVBuildMillis      float64 // offline materialisation cost actually paid
	CostImprovement    float64
	OptTimeImprovement float64
}

// RunAblationAV measures A4 on the paper query over unsorted dense tables.
func RunAblationAV(cfg Figure5Config, w io.Writer) (*AVAblation, error) {
	fk := datagen.FKConfig{RRows: cfg.RRows, SRows: cfg.SRows, AGroups: cfg.AGroups, Dense: true}
	r, s := datagen.FKPair(cfg.Seed, fk)
	q := &logical.GroupBy{
		Input: &logical.Join{
			Left:    &logical.Scan{Table: "R", Rel: r},
			Right:   &logical.Scan{Table: "S", Rel: s},
			LeftKey: "ID", RightKey: "R_ID",
		},
		Key:  "A",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}},
	}
	const reps = 20
	var res AVAblation

	// Plain optimisation time.
	start := time.Now()
	var plain *core.Result
	var err error
	for i := 0; i < reps; i++ {
		plain, err = core.Optimize(q, core.DQO())
		if err != nil {
			return nil, err
		}
	}
	res.PlainOptMicros = float64(time.Since(start).Nanoseconds()) / 1000 / reps
	res.PlainCost = plain.Best.Cost

	// Plan-cache AV: repeated queries skip enumeration. The statement has no
	// filter, so a hit rebinds to the cached plan as it is.
	pc := av.NewPlanCache()
	if _, _, err := pc.OptimizeTemplate("q", q, core.DQO()); err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, hit, err := pc.OptimizeTemplate("q", q, core.DQO()); err != nil || !hit {
			return nil, fmt.Errorf("benchkit: plan cache miss: %v", err)
		}
	}
	res.CachedOptMicros = float64(time.Since(start).Nanoseconds()) / 1000 / reps

	// Structure AVs: prebuilt SPH directory on R.ID.
	buildStart := time.Now()
	cat := av.NewCatalog()
	sph, err := av.MaterializeSPH("R", r, "ID")
	if err != nil {
		return nil, err
	}
	cat.Add(sph)
	res.AVBuildMillis = float64(time.Since(buildStart).Microseconds()) / 1000.0
	withAV, err := core.Optimize(q, core.DQO().WithAVs(cat, cat))
	if err != nil {
		return nil, err
	}
	res.WithAVCost = withAV.Best.Cost
	if res.WithAVCost > 0 {
		res.CostImprovement = res.PlainCost / res.WithAVCost
	}
	if res.CachedOptMicros > 0 {
		res.OptTimeImprovement = res.PlainOptMicros / res.CachedOptMicros
	}

	fmt.Fprintf(w, "# A4: Algorithmic Views on the Section 4.3 query (unsorted dense)\n")
	fmt.Fprintf(w, "optimisation time: plain %.1fus, plan-cache AV %.1fus (%.0fx)\n",
		res.PlainOptMicros, res.CachedOptMicros, res.OptTimeImprovement)
	fmt.Fprintf(w, "plan cost: plain %.0f, with sph(R.ID) AV %.0f (%.2fx), AV built offline in %.2fms\n",
		res.PlainCost, res.WithAVCost, res.CostImprovement, res.AVBuildMillis)
	return &res, nil
}
