package core

import (
	"context"
	"slices"
	"testing"

	"dqo/internal/exec"
	"dqo/internal/expr"
	"dqo/internal/feedback"
	"dqo/internal/logical"
	"dqo/internal/naive"
	"dqo/internal/storage"
)

// skewedQuery builds GROUP BY k over a filter whose heuristic estimate is
// wildly wrong: `v < lim` over a uniform 0..n-1 column is estimated at n/3
// rows but actually keeps lim rows. It is the canonical misestimation the
// feedback loop and mid-query re-planning both exist to correct.
func skewedQuery(n int, lim int64) (*logical.GroupBy, *logical.Filter) {
	ks := make([]uint32, n)
	vs := make([]uint32, n)
	for i := 0; i < n; i++ {
		ks[i] = uint32(i % 16)
		vs[i] = uint32(i)
	}
	rel := storage.MustNewRelation("skew",
		storage.NewUint32("k", ks), storage.NewUint32("v", vs))
	f := &logical.Filter{
		Input: &logical.Scan{Table: "skew", Rel: rel},
		Pred:  expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "v"}, R: expr.IntLit{V: lim}},
	}
	gb := &logical.GroupBy{Input: f, Key: "k", Aggs: []expr.AggSpec{{Func: expr.AggCount}}}
	return gb, f
}

// TestHarvestFeedback runs the paper query end to end, harvests the profile,
// and checks both sides of the store: cardinality corrections keyed exactly
// as logical.ShapeKey would key the equivalent logical tree, and positive
// ns-per-cost-unit coefficients.
func TestHarvestFeedback(t *testing.T) {
	q := paperQuery(t, false, false, true)
	res := optimize(t, q, DQO())
	rel, prof, err := ExecuteContext(context.Background(), res.Best, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	st := feedback.NewStore()
	HarvestFeedback(st, res.Best, prof)

	// The physical plan's shape keys must round-trip to the logical tree's:
	// that identity is what lets the next optimisation find the correction.
	gb := q.(*logical.GroupBy)
	join := gb.Input.(*logical.Join)
	if rows, ok := st.CardHint(logical.ShapeKey(join)); !ok {
		t.Error("no cardinality recorded under the logical join shape key")
	} else if rows <= 0 {
		t.Errorf("join correction = %v rows", rows)
	}
	if rows, ok := st.CardHint(logical.ShapeKey(gb)); !ok {
		t.Error("no cardinality recorded under the logical group shape key")
	} else if int(rows) != rel.NumRows() {
		t.Errorf("group correction = %v rows, executed result has %d", rows, rel.NumRows())
	}

	c := st.Coefficients()
	if len(c) == 0 {
		t.Fatal("no coefficients harvested")
	}
	if c[feedback.GlobalFamily] <= 0 {
		t.Errorf("global ns-per-cost-unit = %v, want > 0", c[feedback.GlobalFamily])
	}
	for f, v := range c {
		if v <= 0 {
			t.Errorf("coefficient %q = %v, want > 0", f, v)
		}
	}
	if st.Version() == 0 {
		t.Error("harvest did not advance the store version")
	}

	// Harvesting a nil store or empty profile must be a no-op, not a panic.
	HarvestFeedback(nil, res.Best, prof)
	HarvestFeedback(st, nil, prof)
	HarvestFeedback(st, res.Best, nil)
}

// TestZeroFeedbackPlanIdentity pins the refactor's core invariant: planning
// through an empty feedback store produces byte-identical plans (explains
// included) to planning without one, across modes and the paper grid.
func TestZeroFeedbackPlanIdentity(t *testing.T) {
	for _, mode := range []Mode{SQO(), DQO(), Greedy(), DQO().WithBeam(2)} {
		for _, c := range []struct{ rSorted, sSorted, dense bool }{
			{true, true, true}, {true, false, true}, {false, false, false}, {false, true, true},
		} {
			q := paperQuery(t, c.rSorted, c.sSorted, c.dense)
			plain := optimize(t, q, mode)

			fb := mode
			fb.Feedback = feedback.NewStore()
			hinted := optimize(t, q, fb)

			if got, want := hinted.Best.Explain(), plain.Best.Explain(); got != want {
				t.Errorf("mode %s %+v: empty-feedback plan differs:\n--- without ---\n%s--- with ---\n%s",
					mode.Name, c, want, got)
			}
			if hinted.Best.Cost != plain.Best.Cost {
				t.Errorf("mode %s %+v: cost %v != %v", mode.Name, c, hinted.Best.Cost, plain.Best.Cost)
			}
		}
	}
}

// TestFeedbackFlipsPlan warms the store with the true cardinality of a
// misestimated filter and checks the optimiser switches to a cheaper plan:
// with ~2 rows instead of an estimated 1000, sort-based grouping undercuts
// the hash grouping the heuristic plan picks. DP minimality makes "the plans
// differ and the feedback plan costs less under truth" the whole assertion.
func TestFeedbackFlipsPlan(t *testing.T) {
	gb, f := skewedQuery(3000, 2)

	cold := optimize(t, gb, DQO())

	st := feedback.NewStore()
	st.RecordCard(logical.ShapeKey(f), 2)
	warm := DQO()
	warm.Feedback = st
	hot := optimize(t, gb, warm)

	if hot.Best.Rows != cold.Best.Rows && hot.Best.Explain() == cold.Best.Explain() {
		t.Fatal("estimates moved but plan text did not register it")
	}
	if hot.Best.Explain() == cold.Best.Explain() {
		t.Fatalf("warmed plan identical to cold plan:\n%s", hot.Best.Explain())
	}
	if hot.Best.Op != OpGroup {
		t.Fatalf("warmed plan lost the grouping:\n%s", hot.Best.Explain())
	}

	// Both plans must still compute the same result.
	cRel, _, err := ExecuteContext(context.Background(), cold.Best, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hRel, _, err := ExecuteContext(context.Background(), hot.Best, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(naive.Rows(cRel), naive.Rows(hRel)) {
		t.Error("feedback-flipped plan changed the query result")
	}
}

// TestReoptSplices executes the same misestimated query cold with
// re-planning armed: the grouping breaker sees 2 rows where 1000 were
// planned, re-enumerates its suffix, and splices the cheaper kernel — same
// result, recorded event.
func TestReoptSplices(t *testing.T) {
	gb, _ := skewedQuery(3000, 2)
	res := optimize(t, gb, DQO())

	base, err := Compile(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(exec.NewExecContext(context.Background(), 0, 1), base)
	if err != nil {
		t.Fatal(err)
	}

	rc := &ReoptConfig{Mode: res.Mode}
	root, err := CompileReopt(res.Best, rc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Run(exec.NewExecContext(context.Background(), 0, 1), root)
	if err != nil {
		t.Fatal(err)
	}

	if rc.Checks() == 0 {
		t.Fatal("no breaker boundary was inspected")
	}
	evs := rc.Events()
	if len(evs) == 0 {
		t.Fatalf("misestimated breaker did not re-plan (checks=%d, plan:\n%s)",
			rc.Checks(), res.Best.Explain())
	}
	ev := evs[0]
	if ev.EstRows < 100 || ev.ActRows > 10 {
		t.Errorf("event cardinalities est=%v act=%v, want est>>act", ev.EstRows, ev.ActRows)
	}
	if ev.Operator == "" || ev.To == "" || ev.To == ev.Operator {
		t.Errorf("event %+v lacks a real switch", ev)
	}
	if !slices.Equal(naive.Rows(got), naive.Rows(want)) {
		t.Error("re-planned execution changed the query result")
	}

	// The profile marks the replanned breaker.
	var marked int64
	for _, s := range exec.CollectProfile(root) {
		marked += s.Replans
	}
	if marked != int64(len(evs)) {
		t.Errorf("profile counts %d replans, events record %d", marked, len(evs))
	}
}

// TestReoptSplicesJoin covers the two-input wrapper: a join whose probe
// side was planned at 1000 rows materialises 2, so build/probe roles (and
// possibly the algorithm family) are re-decided over the true inputs.
func TestReoptSplicesJoin(t *testing.T) {
	// Sparse keys keep the dense-domain join families out of play, so the
	// decision under the truth is about hash-join build/probe roles: planned
	// with a 1000-row probe estimate the build side is the 64-row dimension;
	// with the true 2 rows on the table the roles flip.
	n := 3000
	ks := make([]uint32, n)
	vs := make([]uint32, n)
	for i := 0; i < n; i++ {
		ks[i] = uint32((i%16)*97 + 5)
		vs[i] = uint32(i)
	}
	skew := storage.MustNewRelation("skew",
		storage.NewUint32("k", ks), storage.NewUint32("v", vs))
	f := &logical.Filter{
		Input: &logical.Scan{Table: "skew", Rel: skew},
		Pred:  expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "v"}, R: expr.IntLit{V: 2}},
	}
	dimK := make([]uint32, 64)
	for i := range dimK {
		dimK[i] = uint32((i%16)*97 + 5)
	}
	dim := storage.MustNewRelation("dim", storage.NewUint32("dk", dimK))
	join := &logical.Join{
		Left:    f,
		Right:   &logical.Scan{Table: "dim", Rel: dim},
		LeftKey: "k", RightKey: "dk",
	}
	res := optimize(t, join, DQO())

	base, err := Compile(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(exec.NewExecContext(context.Background(), 0, 1), base)
	if err != nil {
		t.Fatal(err)
	}

	rc := &ReoptConfig{Mode: res.Mode}
	root, err := CompileReopt(res.Best, rc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Run(exec.NewExecContext(context.Background(), 0, 1), root)
	if err != nil {
		t.Fatal(err)
	}
	if evs := rc.Events(); len(evs) == 0 {
		t.Fatalf("misestimated join input did not re-plan (checks=%d, plan:\n%s)",
			rc.Checks(), res.Best.Explain())
	}
	if !slices.Equal(naive.Rows(got), naive.Rows(want)) {
		t.Error("re-planned join changed the query result")
	}
}

// TestReoptQuietOnGoodEstimates: with accurate estimates every breaker runs
// its planned kernel — checks happen, no splices.
func TestReoptQuietOnGoodEstimates(t *testing.T) {
	q := paperQuery(t, false, false, true)
	res := optimize(t, q, DQO())
	rc := &ReoptConfig{Mode: res.Mode}
	root, err := CompileReopt(res.Best, rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(exec.NewExecContext(context.Background(), 0, 1), root); err != nil {
		t.Fatal(err)
	}
	if rc.Checks() == 0 {
		t.Error("no breaker boundary inspected")
	}
	if evs := rc.Events(); len(evs) != 0 {
		t.Errorf("accurate estimates still re-planned: %v", evs)
	}
}
