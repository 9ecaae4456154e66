package dqo

import (
	"context"
	"slices"
	"strings"
	"testing"

	"dqo/internal/naive"
)

// skewDB extends the corpus DB with a table whose filter selectivity the
// heuristic estimator gets badly wrong: `v < 2` over uniform v is estimated
// at 1000 rows but keeps 2. Every feedback and re-planning scenario in this
// file turns on that misestimate.
func skewDB(t testing.TB) *DB {
	t.Helper()
	db := corpusDB(t)
	n := 3000
	ks := make([]uint32, n)
	vs := make([]uint32, n)
	for i := 0; i < n; i++ {
		ks[i] = uint32(i % 16)
		vs[i] = uint32(i)
	}
	tab := NewTableBuilder("skew").Uint32("k", ks).Uint32("v", vs).MustBuild()
	if err := db.Register(tab); err != nil {
		t.Fatal(err)
	}
	return db
}

const skewSQL = "SELECT k, COUNT(*) FROM skew WHERE v < 2 GROUP BY k"

// TestReplanEventsSurface checks the API surface of one triggering query:
// the splice appears on Result.Replans with sane cardinalities, the
// operator's Stats row counts it, and the default threshold engages via
// WithReoptimize(0).
func TestReplanEventsSurface(t *testing.T) {
	db := skewDB(t)
	res, err := db.Query(context.Background(), ModeDQO, skewSQL,
		WithWorkers(1), WithReoptimize(0))
	if err != nil {
		t.Fatal(err)
	}
	evs := res.Replans()
	if len(evs) == 0 {
		t.Fatalf("misestimated query produced no replan events\nplan:\n%s", res.PlanExplain())
	}
	ev := evs[0]
	if ev.EstRows < 100 || ev.ActRows > 10 {
		t.Errorf("event est=%v act=%v, want est >> act", ev.EstRows, ev.ActRows)
	}
	if ev.Operator == "" || ev.To == "" {
		t.Errorf("incomplete event %+v", ev)
	}
	var counted int64
	for _, s := range res.Stats() {
		counted += s.Replans
	}
	if counted != int64(len(evs)) {
		t.Errorf("Stats count %d replans, Replans() has %d", counted, len(evs))
	}

	// Without the option the same query records nothing.
	plain, err := db.Query(context.Background(), ModeDQO, skewSQL, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Replans()) != 0 {
		t.Error("replans recorded without WithReoptimize")
	}
}

// TestExplainAnalyzeReplanned: EXPLAIN ANALYZE over a re-optimised run marks
// the switched operator and appends the splice log.
func TestExplainAnalyzeReplanned(t *testing.T) {
	db := skewDB(t)
	out, err := db.Explain(ModeDQO, skewSQL, ExplainAnalyze(),
		ExplainWith(WithWorkers(1), WithReoptimize(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[replanned]") {
		t.Errorf("analyze output lacks the [replanned] marker:\n%s", out)
	}
	if !strings.Contains(out, "replanned:") {
		t.Errorf("analyze output lacks the splice log:\n%s", out)
	}

	// Without re-optimisation the marker must not appear (golden safety).
	plain, err := db.Explain(ModeDQO, skewSQL, ExplainAnalyze(), ExplainWith(WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "replanned") {
		t.Errorf("plain analyze output mentions replanning:\n%s", plain)
	}
}

// TestFeedbackWarmPlanSwitch closes the loop through the public API: with
// feedback enabled, executing the skewed query once teaches the store its
// true cardinality, and the next optimisation switches to the plan the
// truth makes cheaper — which the DP's minimality guarantees. Results stay
// identical, and EXPLAIN announces the feedback version it planned under.
func TestFeedbackWarmPlanSwitch(t *testing.T) {
	db := skewDB(t)
	db.EnableFeedback(true)
	ctx := context.Background()

	cold, err := db.Explain(ModeDQO, skewSQL, ExplainWith(WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, "feedback=v") {
		t.Errorf("EXPLAIN under feedback lacks the version tag:\n%s", cold)
	}

	coldRes, err := db.Query(ctx, ModeDQO, skewSQL, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	warm, err := db.Explain(ModeDQO, skewSQL, ExplainWith(WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	coldPlan := cold[strings.Index(cold, "\n")+1:]
	warmPlan := warm[strings.Index(warm, "\n")+1:]
	if coldPlan == warmPlan {
		t.Fatalf("warmed optimiser kept the cold plan:\n%s", warmPlan)
	}

	warmRes, err := db.Query(ctx, ModeDQO, skewSQL, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(naive.Rows(coldRes.rel), naive.Rows(warmRes.rel)) {
		t.Error("warmed plan changed the query result")
	}

	// The store is inspectable and resettable.
	if desc := db.DescribeFeedback(); !strings.Contains(desc, "feedback=on") ||
		!strings.Contains(desc, "cardinality corrections") {
		t.Errorf("DescribeFeedback() = %q", desc)
	}
	db.ResetFeedback()
	if desc := db.DescribeFeedback(); !strings.Contains(desc, "(empty)") {
		t.Errorf("DescribeFeedback() after reset = %q", desc)
	}
	reset, err := db.Explain(ModeDQO, skewSQL, ExplainWith(WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := reset[strings.Index(reset, "\n")+1:]; got != coldPlan {
		t.Errorf("reset store did not restore the cold plan:\n%s", got)
	}
}

// TestFeedbackDisabledIsInert: with feedback off (the default), executing
// queries neither populates the store nor changes plans, and EXPLAIN stays
// silent about it.
func TestFeedbackDisabledIsInert(t *testing.T) {
	db := skewDB(t)
	cold, err := db.Explain(ModeDQO, skewSQL, ExplainWith(WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cold, "feedback=") {
		t.Errorf("EXPLAIN mentions feedback while disabled:\n%s", cold)
	}
	if _, err := db.Query(context.Background(), ModeDQO, skewSQL, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if c := db.FeedbackCoefficients(); len(c) != 0 {
		t.Errorf("disabled feedback still harvested coefficients: %v", c)
	}
	after, err := db.Explain(ModeDQO, skewSQL, ExplainWith(WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	// The header embeds the optimisation wall time; compare the plan body.
	if got, want := after[strings.Index(after, "\n")+1:], cold[strings.Index(cold, "\n")+1:]; got != want {
		t.Error("plan changed with feedback disabled")
	}
}

// TestPlanCacheFeedbackStaleness is the staleness regression the version
// key exists for: once the store learns the truth, the cached cold template
// must not be replayed — the next compile misses and re-optimises into
// exactly the plan a cache-free feedback-aware optimiser would choose.
func TestPlanCacheFeedbackStaleness(t *testing.T) {
	db := skewDB(t)
	db.EnablePlanCache(true)
	db.EnableFeedback(true)
	cfg := queryConfig{workers: 1}

	cold, _, err := db.compile(ModeDQO, skewSQL, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldPlan := cold.Best.Explain()

	// Same store version: the template is valid and must hit.
	again, _, err := db.compile(ModeDQO, skewSQL, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Best.Explain() != coldPlan {
		t.Error("cache hit at an unchanged store version returned a different plan")
	}
	hits0, _ := db.PlanCacheStats()
	if hits0 == 0 {
		t.Error("second compile at the same feedback version did not hit the cache")
	}

	// Execute once: the harvest teaches the store the true cardinality and
	// bumps its version, retiring the cold template.
	if _, err := db.Query(context.Background(), ModeDQO, skewSQL, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}

	warm, _, err := db.compile(ModeDQO, skewSQL, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Best.Explain() == coldPlan {
		t.Fatalf("cache replayed the stale cold plan after the store changed:\n%s", coldPlan)
	}

	// The version-keyed miss must re-optimise into exactly the plan a
	// cache-free compile chooses right now.
	db.EnablePlanCache(false)
	fresh, _, err := db.compile(ModeDQO, skewSQL, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Best.Explain() != fresh.Best.Explain() {
		t.Errorf("cached feedback-aware plan differs from a fresh optimisation:\n--- cached ---\n%s--- fresh ---\n%s",
			warm.Best.Explain(), fresh.Best.Explain())
	}
}

// TestSeedFeedbackCoefficients: offline calibration output (the shared
// Coefficients format) imports into the store and round-trips.
func TestSeedFeedbackCoefficients(t *testing.T) {
	db := skewDB(t)
	db.EnableFeedback(true)
	db.SeedFeedback(Coefficients{"*": 10, "join:HJ": 25})
	c := db.FeedbackCoefficients()
	if c["*"] != 10 || c["join:HJ"] != 25 {
		t.Errorf("seeded coefficients did not round-trip: %v", c)
	}
	if desc := db.DescribeFeedback(); !strings.Contains(desc, "join:HJ") {
		t.Errorf("DescribeFeedback() = %q", desc)
	}
}
