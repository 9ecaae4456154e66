package dqo

// Benchmark harness: one benchmark family per table/figure of the paper
// (see DESIGN.md's per-experiment index) plus the A1-A5 ablations.
//
// Dataset size defaults to 2,000,000 rows so `go test -bench=.` finishes in
// minutes; set DQO_BENCH_N=100000000 to reproduce the paper's full scale
// (cmd/dqobench does the same with progress output).

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"testing"

	"dqo/internal/benchkit"
	"dqo/internal/core"
	"dqo/internal/datagen"
	"dqo/internal/exec"
	"dqo/internal/expr"
	"dqo/internal/hashtable"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// benchN returns the Figure 4 dataset size.
func benchN() int {
	if s := os.Getenv("DQO_BENCH_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 2_000_000
}

var benchGroupCounts = []int{100, 10000, 40000}

type figure4Dataset struct {
	keys []uint32
	vals []int64
	dom  props.Domain
}

func makeFigure4Dataset(n, g int, q datagen.Quadrant) figure4Dataset {
	keys := datagen.GroupingKeys(42, n, g, q)
	r := xrand.New(7)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.Uint64n(1000))
	}
	mn, mx := keys[0], keys[0]
	for _, k := range keys {
		if k < mn {
			mn = k
		}
		if k > mx {
			mx = k
		}
	}
	return figure4Dataset{keys: keys, vals: vals, dom: props.Domain{
		Known: true, Lo: uint64(mn), Hi: uint64(mx), Distinct: int64(g),
		Dense: uint64(mx)-uint64(mn)+1 == uint64(g),
	}}
}

// benchFigure4Quadrant runs the applicable grouping algorithms of one
// Figure 4 quadrant as sub-benchmarks.
func benchFigure4Quadrant(b *testing.B, q datagen.Quadrant) {
	n := benchN()
	for _, g := range benchGroupCounts {
		if g > n {
			continue
		}
		ds := makeFigure4Dataset(n, g, q)
		algs := []physical.GroupKind{physical.HG, physical.SOG}
		if q.Sorted {
			algs = append(algs, physical.OG)
		}
		if q.Dense {
			algs = append(algs, physical.SPHG)
		} else {
			algs = append(algs, physical.BSG)
		}
		for _, alg := range algs {
			b.Run(fmt.Sprintf("%s/groups=%d", alg, g), func(b *testing.B) {
				b.SetBytes(int64(n) * 12) // 4B key + 8B value per row
				for i := 0; i < b.N; i++ {
					if _, err := physical.Group(alg, ds.keys, ds.vals, ds.dom, physical.GroupOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure4SortedSparse reproduces Figure 4, top-left (E2 in
// DESIGN.md): sorted input, sparse key domain.
func BenchmarkFigure4SortedSparse(b *testing.B) {
	benchFigure4Quadrant(b, datagen.Quadrant{Sorted: true, Dense: false})
}

// BenchmarkFigure4SortedDense reproduces Figure 4, top-right (E1).
func BenchmarkFigure4SortedDense(b *testing.B) {
	benchFigure4Quadrant(b, datagen.Quadrant{Sorted: true, Dense: true})
}

// BenchmarkFigure4UnsortedSparse reproduces Figure 4, bottom-right (E4),
// including the small-group regime of the paper's zoom inset (see
// BenchmarkFigure4UnsortedSparseZoom).
func BenchmarkFigure4UnsortedSparse(b *testing.B) {
	benchFigure4Quadrant(b, datagen.Quadrant{Sorted: false, Dense: false})
}

// BenchmarkFigure4UnsortedDense reproduces Figure 4, bottom-left (E3).
func BenchmarkFigure4UnsortedDense(b *testing.B) {
	benchFigure4Quadrant(b, datagen.Quadrant{Sorted: false, Dense: true})
}

// BenchmarkFigure4UnsortedSparseZoom reproduces the paper's zoom-in: BSG vs
// HG for up to ~14 groups on unsorted sparse data.
func BenchmarkFigure4UnsortedSparseZoom(b *testing.B) {
	n := benchN()
	q := datagen.Quadrant{Sorted: false, Dense: false}
	for _, g := range []int{2, 8, 14, 32} {
		ds := makeFigure4Dataset(n, g, q)
		for _, alg := range []physical.GroupKind{physical.HG, physical.BSG} {
			b.Run(fmt.Sprintf("%s/groups=%d", alg, g), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := physical.Group(alg, ds.keys, ds.vals, ds.dom, physical.GroupOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// paperQueryNode builds the Section 4.3 logical plan at paper cardinality.
func paperQueryNode(rSorted, sSorted, dense bool) logical.Node {
	cfg := datagen.PaperFKConfig(rSorted, sSorted, dense)
	r, s := datagen.FKPair(42, cfg)
	return &logical.GroupBy{
		Input: &logical.Join{
			Left:    &logical.Scan{Table: "R", Rel: r},
			Right:   &logical.Scan{Table: "S", Rel: s},
			LeftKey: "ID", RightKey: "R_ID",
		},
		Key:  "A",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}},
	}
}

// BenchmarkFigure5 reproduces Figure 5 (E6): it runs the SQO and DQO
// optimisers on every grid cell and reports the dense-column improvement
// factors as custom metrics (the *_factor values are the figure's numbers).
func BenchmarkFigure5(b *testing.B) {
	type cell struct {
		name                    string
		rSorted, sSorted, dense bool
	}
	cells := []cell{
		{"RsortedSsortedDense", true, true, true},
		{"RsortedSunsortedDense", true, false, true},
		{"RunsortedSsortedDense", false, true, true},
		{"RunsortedSunsortedDense", false, false, true},
		{"RunsortedSunsortedSparse", false, false, false},
	}
	for _, c := range cells {
		q := paperQueryNode(c.rSorted, c.sSorted, c.dense)
		b.Run(c.name, func(b *testing.B) {
			var factor float64
			for i := 0; i < b.N; i++ {
				_, _, f, err := core.CompareModes(q, core.SQO(), core.DQO())
				if err != nil {
					b.Fatal(err)
				}
				factor = f
			}
			b.ReportMetric(factor, "improvement_factor")
		})
	}
}

// BenchmarkFigure5Execution (E7) executes the winning SQO and DQO plans of
// the unsorted-dense cell — the estimated 4x must translate into a real
// runtime advantage.
func BenchmarkFigure5Execution(b *testing.B) {
	q := paperQueryNode(false, false, true)
	for _, mode := range []core.Mode{core.SQO(), core.DQO()} {
		res, err := core.Optimize(q, mode)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Execute(res.Best); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Optimizer measures optimisation time itself — the cost of
// deep vs shallow enumeration under the Table 2 model (E5/E6 support), the
// quantity the paper's AV discussion wants to shift offline.
func BenchmarkTable2Optimizer(b *testing.B) {
	q := paperQueryNode(false, false, true)
	for _, mode := range []core.Mode{core.SQO(), core.DQO(), core.DQOCalibrated()} {
		b.Run(mode.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(q, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// twoJoinQueryNode builds the planning-tier experiment's 2-join star query
// (S ⋈ R ⋈ D with grouping) at paper cardinality — the corpus on which the
// greedy, beam-capped, and full Deep tiers trade planning time for plan
// quality.
func twoJoinQueryNode() logical.Node {
	cfg := datagen.PaperFKConfig(true, false, true)
	r, s := datagen.FKPair(42, cfg)
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
	return &logical.GroupBy{
		Input: &logical.Join{
			Left: &logical.Join{
				Left:    &logical.Scan{Table: "S", Rel: s},
				Right:   &logical.Scan{Table: "R", Rel: r},
				LeftKey: "R_ID", RightKey: "ID",
			},
			Right:   &logical.Scan{Table: "D", Rel: d},
			LeftKey: "A", RightKey: "G",
		},
		Key:  "A",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}},
	}
}

// benchPlanTier measures pure planning time of one tier on the 2-join query.
func benchPlanTier(b *testing.B, mode core.Mode) {
	q := twoJoinQueryNode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(q, mode); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanGreedy..Deep are the bench-guard planning benchmarks: the
// greedy tier must stay orders of magnitude under the enumerating tiers.
func BenchmarkPlanGreedy(b *testing.B) {
	m := core.Greedy()
	m.DOP = 4
	benchPlanTier(b, m)
}

func BenchmarkPlanBeam(b *testing.B) {
	m := core.DQOCalibrated()
	m.DOP = 4
	benchPlanTier(b, m.WithBeam(2))
}

func BenchmarkPlanDeep(b *testing.B) {
	m := core.DQOCalibrated()
	m.DOP = 4
	benchPlanTier(b, m)
}

// BenchmarkPlanDQO is exact DQO under the Table 2 model, the tier the
// repository benchmark's adhoc-plan workload plans every query with.
func BenchmarkPlanDQO(b *testing.B) {
	m := core.DQO()
	m.DOP = 4
	benchPlanTier(b, m)
}

// TestOptimizeAllocBound is the alloc guard of the enumeration. A site
// describes an alternative only in the place it takes, its table lives in
// the optimiser's slab, and the chosen plan is built once, top-down, from the
// winning root slot; so planning allocates per query (the column table,
// the estimator, validation), per site and per node of the chosen plan, never
// per alternative costed (211 calibrated and 129 under DQO on the two-join
// star at DOP 4). Every tier must stay under three allocations per logical
// node and per chosen plan node: 36 on the star (39 calibrated, whose plan
// has a seventh node), where the tiers allocate 31-33. Exact DQO allocated 127 objects per run when each table
// entry was a Plan built through a closure, and 3 539 when every alternative
// was built with its property set, key and granule tree; the greedy tier 51
// and 104. A change that reintroduces per-alternative construction fails
// here rather than in a benchmark.
func TestOptimizeAllocBound(t *testing.T) {
	q := twoJoinQueryNode()
	logicalNodes := 0
	var count func(n logical.Node)
	count = func(n logical.Node) {
		logicalNodes++
		for _, c := range n.Children() {
			count(c)
		}
	}
	count(q)
	for _, mode := range []core.Mode{core.DQO(), core.DQOCalibrated(), core.DQOCalibrated().WithBeam(2), core.Greedy()} {
		mode.DOP = 4
		res, err := core.Optimize(q, mode)
		if err != nil {
			t.Fatal(err)
		}
		planNodes := 0
		res.Best.PreOrder(func(*core.Plan, int) { planNodes++ })
		bound := float64(3 * (logicalNodes + planNodes))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := core.Optimize(q, mode); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s beam=%d: %.0f allocations per Optimize (%d logical nodes, %d plan nodes, %d alternatives)",
			mode.Name, mode.Beam, allocs, logicalNodes, planNodes, res.Stats.Alternatives)
		if allocs >= bound {
			t.Errorf("%s: %.0f allocations per Optimize of the two-join star, want under %.0f", mode.Name, allocs, bound)
		}
	}
}

// BenchmarkAblationHashTable is A1: HG with every hash function.
func BenchmarkAblationHashTable(b *testing.B) {
	n := benchN() / 4
	ds := makeFigure4Dataset(n, 10000, datagen.Quadrant{Sorted: false, Dense: false})
	for _, fn := range hashtable.Funcs() {
		b.Run(fn.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := physical.Group(physical.HG, ds.keys, ds.vals, ds.dom, physical.GroupOptions{Hash: fn}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSortKind is A2: SOG with each sort molecule.
func BenchmarkAblationSortKind(b *testing.B) {
	n := benchN() / 4
	ds := makeFigure4Dataset(n, 10000, datagen.Quadrant{Sorted: false, Dense: false})
	for _, sk := range sortx.Kinds() {
		b.Run(sk.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := physical.Group(physical.SOG, ds.keys, ds.vals, ds.dom, physical.GroupOptions{Sort: sk}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelLoad is A3: SPHG's load loop across worker
// counts (the Figure 3(e) parallel-loop molecule).
func BenchmarkAblationParallelLoad(b *testing.B) {
	n := benchN()
	ds := makeFigure4Dataset(n, 10000, datagen.Quadrant{Sorted: false, Dense: true})
	for p := 1; p <= runtime.GOMAXPROCS(0); p *= 2 {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := physical.Group(physical.SPHG, ds.keys, ds.vals, ds.dom, physical.GroupOptions{Parallel: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAV is A4: optimisation with and without Algorithmic
// Views (structure AVs change plan costs; the effect on optimisation time
// itself is measured by the benchkit A4 runner and cmd/dqobench).
func BenchmarkAblationAV(b *testing.B) {
	b.Run("report", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := benchkit.RunAblationAV(benchkit.Figure5Config{RRows: 20000, SRows: 90000, AGroups: 20000, Seed: 42}, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.CostImprovement, "cost_improvement")
				b.ReportMetric(res.OptTimeImprovement, "opt_time_improvement")
			}
		}
	})
}

// BenchmarkEndToEndSQL measures the full pipeline (parse, bind, optimise,
// execute) through the public API: the Figure-5 join, then the same join with
// a WHERE conjunct on R and a star shaped like the repository benchmark's
// adhoc-plan statements, whose conjuncts the binder puts on the scans of R and
// S below the joins.
func BenchmarkEndToEndSQL(b *testing.B) {
	db := endToEndDB(b)
	const q = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
	for _, mode := range []Mode{ModeSQO, ModeDQO} {
		// traced = default posture (ring tracer on); untraced disables the
		// tracer to expose any observability cost on the end-to-end path.
		b.Run(mode.String()+"/traced", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(context.Background(), mode, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(mode.String()+"/untraced", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(context.Background(), mode, q, WithTracer(nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, f := range []struct{ name, sql string }{
		{"filtered", "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < 1000 GROUP BY R.A"},
		{"star", starSQL},
	} {
		for _, mode := range []Mode{ModeSQO, ModeDQO} {
			b.Run(f.name+"/"+mode.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(context.Background(), mode, f.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// endToEndDB registers BenchmarkEndToEndSQL's tables: the R/S pair at 20 000
// and 90 000 rows and the 2 000-row dimension D. Every query builds its join
// tables: with adoption on, the second execution's would be kept and
// repeated executions would time different plans.
func endToEndDB(tb testing.TB) *DB {
	tb.Helper()
	cfg := datagen.FKConfig{RRows: 20000, SRows: 90000, AGroups: 2000, Dense: true}
	r, s := datagen.FKPair(42, cfg)
	g, w := make([]uint32, cfg.AGroups), make([]int64, cfg.AGroups)
	for i := range g {
		g[i], w[i] = uint32(i), int64(i%100)
	}
	db := Open()
	for _, tab := range []*Table{{rel: r}, {rel: s}, NewTableBuilder("D").Uint32("G", g).Int64("W", w).MustBuild()} {
		if err := db.Register(tab); err != nil {
			tb.Fatal(err)
		}
	}
	db.avs.SetBudget(0)
	return db
}

// starSQL is the star statement of BenchmarkEndToEndSQL: two joins, a
// filter on each side, grouping, ORDER BY and LIMIT.
const starSQL = "SELECT R.A, COUNT(*), SUM(D.W) FROM S JOIN R ON S.R_ID = R.ID JOIN D ON R.A = D.G WHERE R.A >= 200 AND S.M < 70 GROUP BY R.A ORDER BY R.A LIMIT 20"

// BenchmarkAblationEngine is A5: the same grouping executed by the
// operator-at-a-time kernel vs the Figure 2 producer-bundle engine.
func BenchmarkAblationEngine(b *testing.B) {
	n := benchN() / 4
	rel := datagen.GroupingRelation(42, n, 10000, datagen.Quadrant{Sorted: false, Dense: true})
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}
	b.Run("operator-SPHG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := physical.GroupByRel(rel, "key", aggs, physical.SPHG, physical.GroupOptions{}, props.Domain{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, strat := range []physical.PartitionStrategy{physical.PartitionBySPH, physical.PartitionByHash} {
		b.Run("bundle-"+strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := physical.GroupByRelBundle(rel, "key", aggs, strat, hashtable.Murmur3Fin, 1, props.Domain{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWorkerCounts sweeps 1, 2, 4 plus GOMAXPROCS when larger: on a
// single-core runner this measures parallel-kernel overhead, on multi-core
// hardware it measures speedup. Serial (workers=1) always runs the
// pre-existing serial kernel.
func benchWorkerCounts() []int {
	ps := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		ps = append(ps, g)
	}
	return ps
}

// BenchmarkScalingGroupBy measures the parallel hash aggregation (per-chunk
// partial tables merged in chunk order) against the serial HG kernel.
func BenchmarkScalingGroupBy(b *testing.B) {
	n := benchN()
	rel := datagen.GroupingRelation(42, n, 10000, datagen.Quadrant{Sorted: false, Dense: false})
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}
	for _, p := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := physical.GroupOptions{Hash: hashtable.Murmur3Fin, Parallel: p}
				if _, err := physical.GroupByRel(rel, "key", aggs, physical.HG, opt, props.Domain{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingJoin measures the hash join with its probe in parallel
// chunks (the build is serial at every worker count) against the serial one.
func BenchmarkScalingJoin(b *testing.B) {
	n := benchN()
	cfg := datagen.FKConfig{RRows: n / 10, SRows: n, AGroups: 10000, Dense: false}
	r, s := datagen.FKPair(42, cfg)
	for _, p := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := physical.JoinOptions{Hash: hashtable.Murmur3Fin, Parallel: p}
				if _, err := physical.JoinRel(r, s, "ID", "R_ID", physical.HJ, opt, props.Domain{}, false, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingSort measures parallel sorted-run generation + k-way
// merge against the serial radix sort.
func BenchmarkScalingSort(b *testing.B) {
	n := benchN()
	rel := datagen.GroupingRelation(42, n, 10000, datagen.Quadrant{Sorted: false, Dense: false})
	for _, p := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := physical.SortRel(rel, "key", sortx.Radix, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMorselPipelineAllocs reports allocs/op for a filter+project
// morsel pipeline through the executor — the sync.Pool-backed morsel
// buffer reuse (satellite: pooled column buffers) should keep the
// steady-state allocation count flat in the number of morsels.
func BenchmarkMorselPipelineAllocs(b *testing.B) {
	n := benchN() / 4
	rel := datagen.GroupingRelation(42, n, 10000, datagen.Quadrant{Sorted: false, Dense: false})
	pred := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "val"}, R: expr.IntLit{V: 500}}
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var root exec.Operator
				if p > 1 {
					pipe := exec.NewPipe(exec.Text("scan"), rel, p)
					pipe.AddStage(exec.Text("filter"), func(s *storage.Scratch, in *storage.Relation) (*storage.Relation, error) {
						return physical.FilterRel(in, pred, nil, s)
					})
					pipe.AddStage(exec.Text("project"), func(_ *storage.Scratch, in *storage.Relation) (*storage.Relation, error) {
						return physical.ProjectRel(in, "key")
					})
					root = pipe
				} else {
					root = exec.NewProject(exec.Text("project"),
						exec.NewFilter(exec.Text("filter"), exec.NewScan(exec.Text("scan"), rel), pred, nil), []string{"key"})
				}
				ec := exec.NewExecContext(context.Background(), 0, p)
				if _, err := exec.Run(ec, root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
