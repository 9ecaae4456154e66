package av

import (
	"strings"
	"sync"
	"testing"

	"dqo/internal/core"
	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/logical"
)

// rangeFilter builds "SELECT * FROM R WHERE A >= lo AND A < hi" over a
// fresh dense FK pair's R table. Same shape, different literals — the
// template cache's hit case.
func rangeFilter(t testing.TB, lo, hi int64) logical.Node {
	t.Helper()
	cfg := datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200, Dense: true}
	r, _ := datagen.FKPair(11, cfg)
	return &logical.Filter{
		Input: &logical.Scan{Table: "R", Rel: r},
		Pred: expr.Bin{Op: expr.OpAnd,
			L: expr.Bin{Op: expr.OpGe, L: expr.Col{Name: "A"}, R: expr.IntLit{V: lo}},
			R: expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "A"}, R: expr.IntLit{V: hi}},
		},
	}
}

// TestOptimizeTemplateRebindsLiterals: the first call under a key plans and
// stores; subsequent same-shape calls must hit, skip enumeration entirely
// (Stats.Alternatives == 0), and execute with the NEW literals — a stale
// template literal would return the wrong row count.
func TestOptimizeTemplateRebindsLiterals(t *testing.T) {
	pc := NewPlanCache()
	const key = "R|A-range"

	res, hit, err := pc.OptimizeTemplate(key, rangeFilter(t, 10, 30), core.DQOCalibrated())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first call reported a hit")
	}
	out, err := core.Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	// Dense A over 200 groups, 2000 rows: each A value holds 10 rows.
	if out.NumRows() != 200 {
		t.Fatalf("miss path returned %d rows, want 200", out.NumRows())
	}

	for _, c := range []struct {
		lo, hi int64
		rows   int
	}{{0, 5, 50}, {90, 95, 50}, {150, 200, 500}} {
		res, hit, err := pc.OptimizeTemplate(key, rangeFilter(t, c.lo, c.hi), core.DQOCalibrated())
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("[%d,%d): same shape missed", c.lo, c.hi)
		}
		if res.Stats.Alternatives != 0 {
			t.Fatalf("[%d,%d): hit enumerated %d alternatives", c.lo, c.hi, res.Stats.Alternatives)
		}
		out, err := core.Execute(res.Best)
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != c.rows {
			t.Fatalf("[%d,%d): rebound plan returned %d rows, want %d — stale literal?",
				c.lo, c.hi, out.NumRows(), c.rows)
		}
	}
	if hits, misses := pc.Stats(); hits != 3 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 3/1", hits, misses)
	}
}

// TestOptimizeTemplateRebindFailureReplaces: a statement whose literals the
// template cannot absorb (a value outside the crack hook's uint32 key range,
// when the cached plan routes the predicate through a cracked AV) must count
// as a miss, replan, and replace the stored template so later compatible
// statements rebind against the fresh one.
func TestOptimizeTemplateRebindFailureReplaces(t *testing.T) {
	cfg := datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200, Dense: true}
	r, _ := datagen.FKPair(11, cfg)
	filter := func(lo, hi int64) logical.Node {
		return &logical.Filter{
			Input: &logical.Scan{Table: "R", Rel: r},
			Pred: expr.Bin{Op: expr.OpAnd,
				L: expr.Bin{Op: expr.OpGe, L: expr.Col{Name: "A"}, R: expr.IntLit{V: lo}},
				R: expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "A"}, R: expr.IntLit{V: hi}},
			},
		}
	}
	cat := NewCatalog()
	cv, err := MaterializeCracked("R", r, "A")
	if err != nil {
		t.Fatal(err)
	}
	cat.Add(cv)
	mode := core.DQOCalibrated().WithCracked(cat)

	pc := NewPlanCache()
	const key = "R|A-range"
	res, hit, err := pc.OptimizeTemplate(key, filter(10, 30), mode)
	if err != nil || hit {
		t.Fatalf("prime: hit=%v err=%v", hit, err)
	}
	if !strings.Contains(res.Best.Explain(), "av:crack(R.A)") {
		t.Fatalf("template does not route through the cracked AV:\n%s", res.Best.Explain())
	}

	// 1<<32 is outside the crack hook's uint32 range: rebind must fail.
	res, hit, err = pc.OptimizeTemplate(key, filter(0, 1<<32), mode)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("unrebindable literal reported as hit")
	}
	out, err := core.Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2000 {
		t.Fatalf("replanned statement returned %d rows, want 2000", out.NumRows())
	}
	if hits, misses := pc.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 0 hits / 2 misses", hits, misses)
	}

	// The replacement template is live: a normal range now rebinds.
	res, hit, err = pc.OptimizeTemplate(key, filter(40, 60), mode)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || res.Stats.Alternatives != 0 {
		t.Fatalf("post-replacement call: hit=%v alternatives=%d", hit, res.Stats.Alternatives)
	}
	if out, err := core.Execute(res.Best); err != nil || out.NumRows() != 200 {
		t.Fatalf("post-replacement rows=%v err=%v", out, err)
	}
}

// TestPlanCacheResetStatsKeepsEntries: ResetStats must zero counters
// without evicting templates — the next same-shape call is still a hit.
func TestPlanCacheResetStatsKeepsEntries(t *testing.T) {
	pc := NewPlanCache()
	const key = "R|A-range"
	if _, _, err := pc.OptimizeTemplate(key, rangeFilter(t, 10, 30), core.DQOCalibrated()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pc.OptimizeTemplate(key, rangeFilter(t, 20, 50), core.DQOCalibrated()); err != nil {
		t.Fatal(err)
	}
	pc.ResetStats()
	if hits, misses := pc.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("after reset: %d/%d", hits, misses)
	}
	_, hit, err := pc.OptimizeTemplate(key, rangeFilter(t, 5, 15), core.DQOCalibrated())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("ResetStats evicted the template")
	}
	if hits, misses := pc.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("post-reset stats = %d/%d, want 1/0", hits, misses)
	}
}

// TestOptimizeTemplateSingleFlight: sixteen callers arriving at once for a
// cold key enumerate once. The planner is the miss; the fifteen that waited
// rebind from its template and count as hits, each with its own literals.
func TestOptimizeTemplateSingleFlight(t *testing.T) {
	pc := NewPlanCache()
	const callers = 16
	nodes := make([]logical.Node, callers)
	for i := range nodes {
		nodes[i] = rangeFilter(t, int64(i), int64(i+5))
	}
	var start, done sync.WaitGroup
	start.Add(1)
	enumerated := make([]int, callers)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			res, _, err := pc.OptimizeTemplate("cold", nodes[i], core.DQOCalibrated())
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			enumerated[i] = res.Stats.Alternatives
			out, err := core.Execute(res.Best)
			if err != nil || out.NumRows() != 50 {
				t.Errorf("caller %d: %d rows (err %v), want 50: a waiter must get its own literals", i, out.NumRows(), err)
			}
		}(i)
	}
	start.Done()
	done.Wait()
	hits, misses := pc.Stats()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", hits, misses, callers-1)
	}
	planners := 0
	for _, alts := range enumerated {
		if alts > 0 {
			planners++
		}
	}
	if planners != 1 {
		t.Fatalf("%d callers enumerated, want 1", planners)
	}
}

// TestOptimizeTemplateFailedPlannerReleasesWaiters: a planner whose
// optimisation fails leaves no entry and no flight behind, so the key can be
// planned again (and nobody waits forever).
func TestOptimizeTemplateFailedPlannerReleasesWaiters(t *testing.T) {
	pc := NewPlanCache()
	bad := &logical.Filter{Input: &logical.Scan{Table: "R"}, Pred: expr.Col{Name: "A"}}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = recover() }() // a nil relation may panic inside the optimiser; waiters must still wake
			if _, _, err := pc.OptimizeTemplate("bad", bad, core.DQOCalibrated()); err == nil {
				t.Error("planned a scan without a relation")
			}
		}()
	}
	wg.Wait()
	if _, hit, err := pc.OptimizeTemplate("bad", rangeFilter(t, 0, 5), core.DQOCalibrated()); err != nil || hit {
		t.Fatalf("key stayed poisoned: hit=%v err=%v", hit, err)
	}
}
