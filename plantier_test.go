package dqo

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dqo/internal/av"
	"dqo/internal/core"
)

// TestBeamZeroDeepPlansGolden pins the Beam=0 contract: with no beam set,
// the DP tiers' chosen plans must stay byte-identical to the plans captured
// before the beam knob existed. The golden file was generated from the
// pre-beam optimiser over the full corpus; run with -update only if a
// deliberate planner change moves the plans. That optimiser looked for a
// prebuilt index under a join's left input only, so the corpus's hash index
// on S.R_ID, which sits under the right input of every corpus join, is set
// aside for this file; the plans it moves since the optimiser looks under
// either input are pinned in golden_deep_plans_right_index.txt.
func TestBeamZeroDeepPlansGolden(t *testing.T) {
	render := func(db *DB) []string {
		var plans []string
		for _, mode := range []Mode{ModeDQO, ModeDQOCalibrated} {
			for _, workers := range []int{1, 4} {
				for _, query := range corpusQueries {
					res, _, err := db.compile(mode, query, queryConfig{workers: workers}, nil)
					if err != nil {
						t.Fatalf("%s/%s: %v", mode, query, err)
					}
					plans = append(plans, fmt.Sprintf("== mode=%s workers=%d query=%s\n%s", mode, workers, query, res.Best.Explain()))
				}
			}
		}
		return plans
	}
	leftOnly := corpusDB(t)
	if !leftOnly.avs.Drop(av.HashIndex, "S", "R_ID") {
		t.Fatal("the corpus has no hash index on S.R_ID to set aside")
	}
	plans, moved := render(leftOnly), []string(nil)
	for i, plan := range render(corpusDB(t)) {
		if plan != plans[i] {
			moved = append(moved, plan)
		}
	}
	for name, got := range map[string]string{
		"golden_deep_plans.txt":             strings.Join(plans, ""),
		"golden_deep_plans_right_index.txt": strings.Join(moved, ""),
	} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("Beam=0 plans drifted from %s (re-run with -update only if the planner change is deliberate)\ngot:\n%s", name, got)
		}
	}
}

// TestGranuleTreesGolden pins everything that reads a granule tree —
// ExplainDeep, the unnesting chains, Result.Physicality — for every corpus
// plan of every tier, serial and parallel, with the index the commuted
// AV-backed plans need and without it: one digest per plan in
// testdata/golden_granule_trees.txt, written when every choice still carried
// its tree through the enumeration. The trees are derived from the chosen
// granule when they are read, and must read the same.
func TestGranuleTreesGolden(t *testing.T) {
	leftOnly := corpusDB(t)
	if !leftOnly.avs.Drop(av.HashIndex, "S", "R_ID") {
		t.Fatal("the corpus has no hash index on S.R_ID to set aside")
	}
	var b strings.Builder
	swapped := 0
	for i, db := range []*DB{leftOnly, corpusDB(t)} {
		for _, mode := range []Mode{ModeSQO, ModeDQO, ModeDQOCalibrated, ModeGreedy} {
			for _, workers := range []int{1, 4} {
				for _, query := range corpusQueries {
					res, _, err := db.compile(mode, query, queryConfig{workers: workers}, nil)
					if err != nil {
						t.Fatalf("%s/%s: %v", mode, query, err)
					}
					res.Best.PreOrder(func(n *core.Plan, _ int) {
						if n.Op == core.OpJoin && n.Swapped {
							swapped++
						}
					})
					h := fnv.New64a()
					fmt.Fprintf(h, "%s%s%.6f", res.Best.ExplainDeep(), unnestChains(res.Best), res.Physicality())
					fmt.Fprintf(&b, "indexes=%d mode=%s workers=%d query=%s %016x\n", i+1, mode, workers, query, h.Sum64())
				}
			}
		}
	}
	if swapped == 0 {
		t.Fatal("no corpus plan commutes a join: the swapped trees are not covered")
	}
	path := filepath.Join("testdata", "golden_granule_trees.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range got {
		if i >= len(wantLines) || got[i] != wantLines[i] {
			t.Errorf("granule trees, unnesting chains or physicality drifted from %s: %s", path, got[i])
		}
	}
}

// TestPlanCacheTemplateNoStaleLiterals is the template-cache correctness
// check: repeated query shapes with different literals must hit the cache
// and still see their own literals — including the cracked-index probe
// range, which Rebind recomputes from the new bounds. Every cached answer
// is compared against a cache-disabled reference database.
func TestPlanCacheTemplateNoStaleLiterals(t *testing.T) {
	db := corpusDB(t)
	ref := corpusDB(t)
	db.EnablePlanCache(true)
	shapes := []struct {
		shape string
		lits  []int
	}{
		// Plain filter: the Filter predicate is spliced per query.
		{"SELECT ID FROM R WHERE A = %d", []int{3, 7, 50}},
		// Cracked range: CrackLo/CrackHi must follow the literal.
		{"SELECT A, COUNT(*) FROM R WHERE A < %d GROUP BY A ORDER BY A", []int{30, 12, 77}},
	}
	for _, s := range shapes {
		for _, lit := range s.lits {
			q := fmt.Sprintf(s.shape, lit)
			got, err := db.Query(context.Background(), ModeDQOCalibrated, q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want, err := ref.Query(context.Background(), ModeDQOCalibrated, q)
			if err != nil {
				t.Fatalf("%s (reference): %v", q, err)
			}
			if !got.rel.Equal(want.rel) {
				t.Errorf("%s: cached-template result differs from cache-disabled reference (stale literal?)\nwant:\n%s\ngot:\n%s",
					q, want.rel, got.rel)
			}
		}
	}
	hits, misses := db.PlanCacheStats()
	if misses != len(shapes) {
		t.Errorf("misses = %d, want %d (one per shape)", misses, len(shapes))
	}
	wantHits := 0
	for _, s := range shapes {
		wantHits += len(s.lits) - 1
	}
	if hits != wantHits {
		t.Errorf("hits = %d, want %d (every repeat of a shape must hit)", hits, wantHits)
	}
	// A hit re-plans in O(rebind): zero enumeration. The DB-level
	// alternatives counter must not move on hits.
	before := db.Metrics().OptimizerAlternatives
	if _, err := db.Query(context.Background(), ModeDQOCalibrated, "SELECT ID FROM R WHERE A = 11"); err != nil {
		t.Fatal(err)
	}
	if after := db.Metrics().OptimizerAlternatives; after != before {
		t.Errorf("template hit enumerated %d alternatives, want 0", after-before)
	}
}

// TestPlanCacheRebindFallback: a statement whose literal cannot be rebound
// into the cached template — the cached plan probes a cracked index, and
// the new literal is outside the uint32 key domain, so no probe range
// exists — must fall back to a full re-plan, counted as a miss, never a
// wrong answer.
func TestPlanCacheRebindFallback(t *testing.T) {
	db := corpusDB(t)
	db.EnablePlanCache(true)
	// Prime the template with a crackable range on R.A (cracked AV present).
	q1 := "SELECT A, COUNT(*) FROM R WHERE A >= 10 AND A < 30 GROUP BY A ORDER BY A"
	r1, err := db.Query(context.Background(), ModeDQOCalibrated, q1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.NumRows() != 20 {
		t.Fatalf("q1: %d rows, want 20", r1.NumRows())
	}
	// Same fingerprint, but the second bound is outside the uint32 key
	// domain: predRange refuses it, Rebind fails, and the cache must
	// re-plan instead of serving a template with a stale (or nonsensical)
	// crack range.
	q2 := "SELECT A, COUNT(*) FROM R WHERE A >= 0 AND A < 4294967296 GROUP BY A ORDER BY A"
	r2, err := db.Query(context.Background(), ModeDQOCalibrated, q2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumRows() != 100 {
		t.Fatalf("q2 (unrebindable literal): %d rows, want 100 (every group)\n%s", r2.NumRows(), r2.rel)
	}
	hits, misses := db.PlanCacheStats()
	if hits != 0 || misses != 2 {
		t.Fatalf("cache stats = %d hits / %d misses, want 0/2: rebind failure must count as a miss", hits, misses)
	}
	// The replacement template must serve subsequent crackable literals.
	q3 := "SELECT A, COUNT(*) FROM R WHERE A >= 90 AND A < 95 GROUP BY A ORDER BY A"
	r3, err := db.Query(context.Background(), ModeDQOCalibrated, q3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.NumRows() != 5 {
		t.Fatalf("q3: %d rows, want 5 — stale cracked range?", r3.NumRows())
	}
}

// TestEnablePlanCacheDisabledStopsCounting is the satellite fix: a disabled
// plan cache must stop counting misses entirely and zero its counters, so
// the exported hit ratio reflects only periods the cache was live.
func TestEnablePlanCacheDisabledStopsCounting(t *testing.T) {
	db := corpusDB(t)
	db.EnablePlanCache(true)
	if _, err := db.Query(context.Background(), ModeDQO, paperSQL); err != nil {
		t.Fatal(err)
	}
	if _, misses := db.PlanCacheStats(); misses != 1 {
		t.Fatalf("misses = %d, want 1 while enabled", misses)
	}
	db.EnablePlanCache(false)
	if hits, misses := db.PlanCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("stats = %d/%d after disable, want 0/0", hits, misses)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Query(context.Background(), ModeDQO, paperSQL); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := db.PlanCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("stats = %d/%d, want 0/0: a disabled cache must not count misses", hits, misses)
	}
}

// TestExplainTierHeaders checks that the planning tier is surfaced in the
// EXPLAIN header for every tier, including the beam width when set.
func TestExplainTierHeaders(t *testing.T) {
	db := corpusDB(t)
	cases := []struct {
		mode Mode
		opts []ExplainOption
		want []string
	}{
		{ModeGreedy, nil, []string{"tier=greedy"}},
		{ModeDQOCalibrated, nil, []string{"tier=deep"}},
		{ModeSQO, nil, []string{"tier=shallow"}},
		{ModeDQOCalibrated, []ExplainOption{ExplainWith(WithBeam(2))}, []string{"tier=beam", "beam=2"}},
	}
	for _, c := range cases {
		text, err := db.Explain(c.mode, paperSQL, c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.mode, err)
		}
		for _, want := range c.want {
			if !strings.Contains(text, want) {
				t.Errorf("%s: EXPLAIN header missing %q:\n%s", c.mode, want, text)
			}
		}
	}
}

// TestTraceOptimiseSpanTier checks the planning-time observability rung:
// the optimise span of a query trace carries the tier (and beam width)
// attributes the \trace command renders.
func TestTraceOptimiseSpanTier(t *testing.T) {
	db := corpusDB(t)
	optimiseSpan := func(res *Result) *Span {
		t.Helper()
		tr := res.Trace()
		if tr == nil || tr.Root == nil {
			t.Fatal("no trace")
		}
		for _, sp := range tr.Root.Children {
			if sp.Name == "optimise" {
				return sp
			}
		}
		t.Fatal("no optimise span in trace")
		return nil
	}

	res, err := db.Query(context.Background(), ModeGreedy, paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if got := optimiseSpan(res).Attr("tier"); got != "greedy" {
		t.Errorf("greedy optimise span tier = %q, want greedy", got)
	}

	res, err = db.Query(context.Background(), ModeDQOCalibrated, paperSQL, WithBeam(3))
	if err != nil {
		t.Fatal(err)
	}
	sp := optimiseSpan(res)
	if got := sp.Attr("tier"); got != "beam" {
		t.Errorf("beam optimise span tier = %q, want beam", got)
	}
	if got := sp.Attr("beam"); got != "3" {
		t.Errorf("beam optimise span beam = %q, want 3", got)
	}
	if !strings.Contains(sp.Render(), "tier=beam") {
		t.Errorf("span render missing tier attribute:\n%s", sp.Render())
	}
}

// TestGreedyBudgetedGroupFitsInMemory: a grouping whose parallel hash
// aggregation is over the memory limit and whose serial one fits runs the
// serial one under the greedy tier, as under the exact tiers: the same rows
// as ModeDQOCalibrated, no budget failure, and nothing spilled when a spill
// directory is set.
func TestGreedyBudgetedGroupFitsInMemory(t *testing.T) {
	const n, groups = 400_000, 5_000
	k, v := make([]uint32, n), make([]int64, n)
	for i := range k {
		k[i], v[i] = uint32((i*7919)%groups)*1000, int64(i%97)
	}
	db := Open()
	if err := db.Register(NewTableBuilder("T").Uint32("K", k).Int64("V", v).MustBuild()); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT K, SUM(V) FROM T GROUP BY K"
	rows := func(mode Mode, opts ...QueryOption) ([]string, *Result) {
		t.Helper()
		res, err := db.Query(context.Background(), mode, q, append(opts, WithWorkers(4), WithMemoryLimit(5_100_001))...)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		out := make([]string, res.NumRows())
		for i := range out {
			out[i] = strings.Join(res.Row(i), ",")
		}
		slices.Sort(out)
		return out, res
	}
	want, _ := rows(ModeDQOCalibrated)
	if len(want) != groups {
		t.Fatalf("%s returned %d groups, want %d", ModeDQOCalibrated, len(want), groups)
	}
	if got, res := rows(ModeGreedy); !slices.Equal(got, want) {
		t.Fatalf("greedy returned %d rows, want the %d of %s:\n%s", len(got), len(want), ModeDQOCalibrated, res.PlanExplain())
	}
	if got, res := rows(ModeGreedy, WithSpillDir(t.TempDir())); !slices.Equal(got, want) || res.SpilledBytes() != 0 {
		t.Fatalf("greedy with a spill directory returned %d rows (want %d) and spilled %d bytes:\n%s",
			len(got), len(want), res.SpilledBytes(), res.PlanExplain())
	}
}
