package dqo

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"dqo/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// testDB2Join extends the paper's R/S schema with a third table G keyed by
// the grouping attribute, so queries can exercise a 2-join + group-by plan.
func testDB2Join(t testing.TB) *DB {
	t.Helper()
	db := testDB(t, false, false, true)
	n := 100
	ids := make([]uint32, n)
	w := make([]int64, n)
	for i := range ids {
		ids[i] = uint32(i)
		w[i] = int64(i * 10)
	}
	if err := db.Register(NewTableBuilder("G").Uint32("GID", ids).Int64("W", w).MustBuild()); err != nil {
		t.Fatal(err)
	}
	return db
}

const twoJoinSQL = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID JOIN G ON R.A = G.GID GROUP BY R.A"

var (
	memRE = regexp.MustCompile(`\d+(\.\d+)?(B|KiB|MiB|GiB|TiB)`)
	facRE = regexp.MustCompile(`\d+\.\d{2}x`)
	durRE = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s)`)
)

// normalizeAnalyze blanks the machine-dependent cells of an EXPLAIN ANALYZE
// report — durations, byte sizes, misestimation factors — leaving the
// machine-independent shape: operator tree, estimated and measured
// cardinalities, column layout, phase names.
func normalizeAnalyze(s string) string {
	s = memRE.ReplaceAllString(s, "<mem>")
	s = facRE.ReplaceAllString(s, "<x>")
	s = durRE.ReplaceAllString(s, "<dur>")
	// Re-collapse runs of spaces: column widths move with the blanked cells.
	sp := regexp.MustCompile(` +`)
	s = sp.ReplaceAllString(s, " ")
	return s
}

// TestExplainAnalyzeGolden pins the full EXPLAIN ANALYZE rendering for the
// 2-join + group-by query under both deterministic cost models. The
// calibrated model picks machine-dependent plans, so it is covered by the
// structural test below instead. Workers are pinned: deep modes default
// their DOP to GOMAXPROCS and enumerate a parallel twin per granule above
// one, so the alternatives= count would otherwise depend on the host.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := testDB2Join(t)
	for _, mode := range []Mode{ModeSQO, ModeDQO} {
		t.Run(mode.String(), func(t *testing.T) {
			text, err := db.Explain(mode, twoJoinSQL, ExplainAnalyze(), ExplainWith(WithWorkers(1)))
			if err != nil {
				t.Fatal(err)
			}
			got := normalizeAnalyze(text)
			path := filepath.Join("testdata", "analyze_"+mode.String()+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN ANALYZE drifted from %s (re-run with -update if intended)\n got:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}

// TestExplainAnalyzeAllModes checks the acceptance criterion: in every
// optimisation mode, EXPLAIN ANALYZE renders estimated vs measured values
// with misestimation factors for every operator of a 2-join + group-by
// query.
func TestExplainAnalyzeAllModes(t *testing.T) {
	db := testDB2Join(t)
	for _, mode := range []Mode{ModeSQO, ModeDQO, ModeDQOCalibrated} {
		t.Run(mode.String(), func(t *testing.T) {
			text, err := db.Explain(mode, twoJoinSQL, ExplainAnalyze())
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(text, "mode="+mode.String()) {
				t.Fatalf("missing mode header:\n%s", text)
			}
			for _, col := range []string{"est_rows", "act_rows", "rows_x", "est_self",
				"act_self", "time_x", "est_mem", "act_mem", "mem_x", "dop"} {
				if !strings.Contains(text, col) {
					t.Fatalf("missing column %q:\n%s", col, text)
				}
			}
			// Every plan operator must appear as a table row carrying
			// estimates: its rows_x factor cell is a number, not "-".
			lines := strings.Split(text, "\n")
			hdr := -1
			for i, l := range lines {
				if strings.Contains(l, "est_rows") {
					hdr = i
					break
				}
			}
			if hdr < 0 {
				t.Fatalf("no analyze table header:\n%s", text)
			}
			ops := map[string]bool{"Scan(R)": false, "Scan(S)": false, "Scan(G)": false}
			joins, groups := 0, 0
			for _, l := range lines[hdr+1:] {
				if strings.HasPrefix(l, "total:") || strings.TrimSpace(l) == "" {
					break
				}
				name := strings.TrimSpace(l)
				for op := range ops {
					if strings.HasPrefix(name, op) {
						ops[op] = true
					}
				}
				if strings.Contains(name, "J(") {
					joins++
				}
				if strings.HasPrefix(name, "HG(") || strings.HasPrefix(name, "OG(") ||
					strings.HasPrefix(name, "SG(") || strings.Contains(name, "G(") && strings.Contains(name, "COUNT") {
					groups++
				}
				if !facRE.MatchString(l) {
					t.Errorf("operator row without a misestimation factor: %q", l)
				}
			}
			for op, seen := range ops {
				if !seen {
					t.Errorf("%s missing from analyze table:\n%s", op, text)
				}
			}
			if joins < 2 || groups < 1 {
				t.Errorf("expected 2 joins and a grouping operator, saw %d/%d:\n%s", joins, groups, text)
			}
		})
	}
}

// TestMetricsPartition runs a known mix of successful and failed queries
// and checks DB.Metrics partitions them exactly: every query lands in
// precisely one (mode, status) cell and the totals add back up.
func TestMetricsPartition(t *testing.T) {
	db := testDB(t, false, false, true)
	db.EnablePlanCache(true)
	ctx := context.Background()
	for _, m := range []Mode{ModeSQO, ModeDQO, ModeDQOCalibrated} {
		if _, err := db.Query(ctx, m, paperSQL); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query(ctx, ModeDQO, paperSQL, WithMemoryLimit(16)); !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("budget-starved query: err = %v, want ErrMemoryBudgetExceeded", err)
	}
	if _, err := db.Query(ctx, ModeDQO, "SELECT FROM WHERE"); err == nil {
		t.Fatal("malformed query parsed")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.Query(cancelled, ModeDQO, paperSQL); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled query: err = %v, want ErrCancelled", err)
	}

	snap := db.Metrics()
	if snap.Queries != 6 {
		t.Fatalf("Queries = %d, want 6", snap.Queries)
	}
	if snap.OK != 3 {
		t.Fatalf("OK = %d, want 3", snap.OK)
	}
	var errSum int64
	for _, n := range snap.Errors {
		errSum += n
	}
	if snap.OK+errSum != snap.Queries {
		t.Fatalf("partition broken: OK %d + errors %d != queries %d", snap.OK, errSum, snap.Queries)
	}
	for kind, want := range map[string]int64{"memory_budget": 1, "other": 1, "cancelled": 1} {
		if snap.Errors[kind] != want {
			t.Fatalf("Errors[%q] = %d, want %d (all: %v)", kind, snap.Errors[kind], want, snap.Errors)
		}
	}
	for _, m := range []Mode{ModeSQO, ModeDQOCalibrated} {
		ms := snap.Modes[m.String()]
		if ms.Total != 1 || ms.OK != 1 {
			t.Fatalf("mode %s: %+v, want 1 total / 1 ok", m, ms)
		}
	}
	ms := snap.Modes["dqo"]
	var dqoErrs int64
	for _, n := range ms.Errors {
		dqoErrs += n
	}
	if ms.Total != 4 || ms.OK != 1 || dqoErrs != 3 {
		t.Fatalf("mode dqo: %+v, want 4 total / 1 ok / 3 errors", ms)
	}
	if snap.LatencyCount != 6 {
		t.Fatalf("LatencyCount = %d, want 6", snap.LatencyCount)
	}
	if snap.Morsels <= 0 || snap.MorselRows <= 0 {
		t.Fatalf("hot-path counters silent: morsels=%d rows=%d", snap.Morsels, snap.MorselRows)
	}
	if snap.MemHighWater <= 0 {
		t.Fatalf("MemHighWater = %d, want > 0", snap.MemHighWater)
	}
	if snap.PlanCacheMisses <= 0 {
		t.Fatalf("PlanCacheMisses = %d, want > 0", snap.PlanCacheMisses)
	}
	var b strings.Builder
	if err := db.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	for _, want := range []string{
		`dqo_queries_total{mode="dqo",status="ok"} 1`,
		`dqo_queries_total{mode="dqo",status="memory_budget"} 1`,
		`dqo_queries_total{mode="sqo",status="ok"} 1`,
		"dqo_query_duration_seconds_count 6",
		"dqo_plan_cache_misses_total",
		"dqo_mem_highwater_bytes",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
	if _, err := db.Query(ctx, ModeDQO, paperSQL); err != nil {
		t.Fatal(err)
	}
	if after := db.Metrics(); after.PlanCacheHits != snap.PlanCacheHits+1 {
		t.Fatalf("repeat query did not hit the plan cache: %d -> %d", snap.PlanCacheHits, after.PlanCacheHits)
	}
}

// TestMetricsConcurrent hammers one DB from many goroutines with a mix of
// succeeding and failing queries; run under -race this doubles as the data
// race check for the whole observe path. The counts must still partition
// exactly.
func TestMetricsConcurrent(t *testing.T) {
	db := testDB(t, false, false, true)
	const workers, rounds = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				if _, err := db.Query(ctx, ModeDQO, paperSQL); err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
				if _, err := db.Query(ctx, ModeSQO, "SELECT FROM WHERE"); err == nil {
					t.Errorf("worker %d: malformed query parsed", w)
				}
			}
		}(w)
	}
	wg.Wait()
	snap := db.Metrics()
	want := int64(workers * rounds * 2)
	if snap.Queries != want {
		t.Fatalf("Queries = %d, want %d", snap.Queries, want)
	}
	if snap.OK != want/2 || snap.Errors["other"] != want/2 {
		t.Fatalf("ok=%d other=%d, want %d each", snap.OK, snap.Errors["other"], want/2)
	}
	if snap.LatencyCount != want {
		t.Fatalf("LatencyCount = %d, want %d", snap.LatencyCount, want)
	}
}

// sliceTracer records every delivered trace.
type sliceTracer struct {
	mu     sync.Mutex
	traces []*QueryTrace
}

func (s *sliceTracer) TraceQuery(t *QueryTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = append(s.traces, t)
}

// TestTracerSpanTree checks the span tree delivered to the tracer: the root
// query span has exactly the six lifecycle phases in order, and the execute
// phase's subtree matches the Result's execution profile pre-order.
func TestTracerSpanTree(t *testing.T) {
	db := testDB2Join(t)
	st := &sliceTracer{}
	db.SetTracer(st)
	res, err := db.Query(context.Background(), ModeDQO, twoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.traces) != 1 {
		t.Fatalf("tracer got %d traces, want 1", len(st.traces))
	}
	tr := st.traces[0]
	if res.Trace() != tr {
		t.Fatal("Result.Trace() is not the trace delivered to the tracer")
	}
	if tr.Query != twoJoinSQL || tr.Mode != "dqo" || tr.Err != "" {
		t.Fatalf("trace header: %q mode=%q err=%q", tr.Query, tr.Mode, tr.Err)
	}
	if tr.Root == nil || tr.Root.Name != "query" {
		t.Fatalf("root span = %+v", tr.Root)
	}
	phases := obs.Phases()
	if len(tr.Root.Children) != len(phases) {
		t.Fatalf("root has %d children, want %d phases", len(tr.Root.Children), len(phases))
	}
	for i, p := range phases {
		if tr.Root.Children[i].Name != p {
			t.Fatalf("phase %d = %q, want %q", i, tr.Root.Children[i].Name, p)
		}
	}
	exec := tr.Phase(obs.PhaseExecute)
	if exec == nil {
		t.Fatal("no execute phase span")
	}
	var got []string
	for _, c := range exec.Children {
		c.Walk(func(s *Span, _ int) {
			got = append(got, s.Name)
		})
	}
	stats := res.Stats()
	if len(got) != len(stats) {
		t.Fatalf("execute subtree has %d spans, profile has %d operators", len(got), len(stats))
	}
	for i, s := range stats {
		if got[i] != s.Label {
			t.Fatalf("span %d = %q, profile label = %q", i, got[i], s.Label)
		}
		if s.Label == "Scan(R)" {
			span := findSpan(exec, "Scan(R)")
			if span == nil || span.Rows != s.RowsOut || span.Batches != s.Batches || span.DOP != s.DOP {
				t.Fatalf("Scan(R) span %+v does not mirror profile %+v", span, s)
			}
		}
	}
}

func findSpan(root *Span, name string) *Span {
	var out *Span
	root.Walk(func(s *Span, _ int) {
		if out == nil && s.Name == name {
			out = s
		}
	})
	return out
}

// TestRingTracerDefault checks the default observability posture: a fresh
// DB traces into a ring buffer reachable through LastTrace, and failed
// queries are traced too, carrying their error.
func TestRingTracerDefault(t *testing.T) {
	db := testDB(t, false, false, true)
	if db.LastTrace() != nil {
		t.Fatal("LastTrace on an idle DB should be nil")
	}
	if _, err := db.Query(context.Background(), ModeDQO, paperSQL); err != nil {
		t.Fatal(err)
	}
	tr := db.LastTrace()
	if tr == nil || tr.Query != paperSQL || tr.Err != "" {
		t.Fatalf("LastTrace = %+v", tr)
	}
	if _, err := db.Query(context.Background(), ModeDQO, paperSQL, WithMemoryLimit(16)); err == nil {
		t.Fatal("budget-starved query succeeded")
	}
	tr = db.LastTrace()
	if tr == nil || tr.Err != "memory_budget" {
		t.Fatal("failed query left no trace carrying its error kind")
	}
}

// TestRingTraceIsBuiltOnRead: the default ring takes a query's trace as a
// source and builds it when it is read — the same trace for the ring and the
// Result, with the operator labels the plan had when the query ran, even if
// the table has been replaced since.
func TestRingTraceIsBuiltOnRead(t *testing.T) {
	db := Open()
	if err := db.Register(versionedR(1, 100)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), ModeDQOCalibrated, "SELECT ID FROM R WHERE A = 3", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(versionedR(2, 250)); err != nil {
		t.Fatal(err)
	}
	tr := db.LastTrace()
	if tr == nil || tr != res.Trace() || tr != db.LastTrace() {
		t.Fatalf("LastTrace = %p, Result.Trace = %p", tr, res.Trace())
	}
	text := tr.String()
	for _, want := range []string{"Project(R.ID)", "Filter((R.A = 3))", "Scan(R)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace lacks %q:\n%s", want, text)
		}
	}
	stats := res.Stats()
	if len(stats) != 3 || stats[1].Label != "Filter((R.A = 3))" || stats[1].RowsOut != 10 {
		t.Fatalf("Stats = %+v", stats)
	}
}

// TestWithTracerOption checks per-query tracer control: WithTracer(nil)
// silences one query without touching the DB default, and WithTracer(other)
// redirects one query's trace.
func TestWithTracerOption(t *testing.T) {
	db := testDB(t, false, false, true)
	res, err := db.Query(context.Background(), ModeDQO, paperSQL, WithTracer(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace() != nil {
		t.Fatal("WithTracer(nil) still produced a trace")
	}
	if db.LastTrace() != nil {
		t.Fatal("WithTracer(nil) leaked a trace into the DB ring")
	}
	st := &sliceTracer{}
	if _, err := db.Query(context.Background(), ModeDQO, paperSQL, WithTracer(st)); err != nil {
		t.Fatal(err)
	}
	if len(st.traces) != 1 {
		t.Fatalf("override tracer got %d traces, want 1", len(st.traces))
	}
	if db.LastTrace() != nil {
		t.Fatal("per-query tracer override leaked into the DB ring")
	}
}

// TestAliasClash pins the bind-time fix: output-name collisions are
// reported as errors instead of silently dropping the alias.
func TestAliasClash(t *testing.T) {
	db := testDB(t, false, false, true)
	_, err := db.Query(context.Background(), ModeDQO, "SELECT R.ID AS X, R.A AS X FROM R LIMIT 5")
	if err == nil {
		t.Fatal("clashing alias accepted")
	}
	if !strings.Contains(err.Error(), "duplicate output column") {
		t.Fatalf("err = %v, want duplicate output column", err)
	}
	_, err = db.Query(context.Background(), ModeDQO, "SELECT R.A AS X, R.A AS Y FROM R LIMIT 5")
	if err == nil || !strings.Contains(err.Error(), "aliased twice") {
		t.Fatalf("err = %v, want aliased twice", err)
	}
	// Non-clashing aliases keep working.
	res, err := db.Query(context.Background(), ModeDQO, "SELECT R.ID AS RID, R.A FROM R LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Columns(); len(got) != 2 || got[0] != "RID" {
		t.Fatalf("columns = %v", got)
	}
}

// TestMaterializeAVKinds drives the consolidated MaterializeAV entry point
// over every kind.
func TestMaterializeAVKinds(t *testing.T) {
	db := testDB(t, false, false, true)
	for _, k := range []AVKind{AVSorted, AVHashIndex, AVSPH, AVCracked} {
		if err := db.MaterializeAV(k, "R", "ID"); err != nil {
			t.Fatalf("MaterializeAV(%s): %v", k, err)
		}
	}
	desc := db.DescribeAVs()
	for _, want := range []string{"sorted", "hashidx", "sph", "crack"} {
		if !strings.Contains(strings.ToLower(desc), want) {
			t.Errorf("DescribeAVs missing %q:\n%s", want, desc)
		}
	}
	if err := db.MaterializeAV(AVKind(99), "R", "ID"); err == nil {
		t.Fatal("unknown AVKind accepted")
	}
}
