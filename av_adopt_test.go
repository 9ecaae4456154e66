package dqo

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dqo/internal/core"
	"dqo/internal/datagen"
	"dqo/internal/naive"
	"dqo/internal/storage"
)

// adoptDB registers an FK pair whose join builds over at least a morsel of
// rows: R sorted and sparse, so the deep plan builds on S (22 500 rows) to
// keep R's order for the grouping; with dense, R's directory (5 000 rows)
// under the left input instead.
func adoptDB(t testing.TB, dense bool) *DB {
	t.Helper()
	r, s := datagen.FKPair(7, datagen.FKConfig{RRows: 5000, SRows: 22500, AGroups: 500, RSorted: !dense, Dense: dense})
	db := Open()
	for _, tab := range []*Table{{rel: r}, {rel: s}} {
		if err := db.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// stmtAt is a prepared statement executed at a fixed worker count.
type stmtAt struct {
	*Stmt
	workers int
}

func (s stmtAt) QueryWith(ctx context.Context, args []any, opts ...QueryOption) (*Result, error) {
	return s.Stmt.QueryWith(ctx, args, append(opts, WithWorkers(s.workers))...)
}

func mustQuery(t testing.TB, st interface {
	QueryWith(context.Context, []any, ...QueryOption) (*Result, error)
}, opts ...QueryOption) *Result {
	t.Helper()
	res, err := st.QueryWith(context.Background(), nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustPrepare(t testing.TB, db *DB, mode Mode, query string) *Stmt {
	t.Helper()
	st, err := db.Prepare(mode, query)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAdoptOnSecondBuild walks one statement through the life of an adopted
// view: two executions build, the second one's table is adopted and its trace
// says so, the epoch moves once, the third execution plans through the view
// and every execution returns the same rows in the same order; the catalog,
// the metrics and DescribeAVs account for it; CompressTable keeps it, DropAVs
// removes it, after which the cycle starts over.
func TestAdoptOnSecondBuild(t *testing.T) {
	for _, c := range []struct {
		name    string
		dense   bool
		mode    Mode
		workers int
		plan    string
	}{
		{"hash index under the right input", false, ModeDQO, 2, "via av:hashidx(S.R_ID) [build right]"},
		{"sph directory under the left input", true, ModeDQO, 2, "SPHJ(R.ID = S.R_ID) via av:sph(R.ID)  ("},
		// One worker: at two the calibrated tiers pick the partitioned
		// parallel build, which has no single table to give away.
		{"greedy tier", false, ModeGreedy, 1, "via av:hashidx(R.ID)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := adoptDB(t, c.dense)
			prepared := mustPrepare(t, db, c.mode, paperSQL)
			st := stmtAt{prepared, c.workers}
			epoch := db.catalogEpoch.Load()

			first := mustQuery(t, st)
			if strings.Contains(first.PlanExplain(), "via av:") || !strings.Contains(db.DescribeAVs(), "empty") ||
				db.catalogEpoch.Load() != epoch {
				t.Fatalf("after one build: plan, catalog or epoch moved\n%s%s", first.PlanExplain(), db.DescribeAVs())
			}
			second := mustQuery(t, st)
			if second.PlanExplain() != first.PlanExplain() {
				t.Fatalf("second execution planned differently:\n%s", second.PlanExplain())
			}
			desc := db.DescribeAVs()
			if !strings.Contains(desc, "adopted from a join") || db.catalogEpoch.Load() != epoch+1 {
				t.Fatalf("after the second build: epoch %d → %d, catalog:\n%s", epoch, db.catalogEpoch.Load(), desc)
			}
			var execAttr string
			second.Trace().Root.Walk(func(s *Span, _ int) {
				if v := s.Attr("av-adopted"); v != "" {
					execAttr = s.Name + ":" + v
				}
			})
			if !strings.HasPrefix(execAttr, "execute:av:") || !strings.Contains(desc, strings.TrimPrefix(execAttr, "execute:")) {
				t.Fatalf("the adopting execution's trace says %q, catalog:\n%s", execAttr, desc)
			}
			if first.Trace().Root.Render() == "" || strings.Contains(first.Trace().Root.Render(), "av-adopted") {
				t.Fatal("the first execution's trace claims an adoption")
			}

			for i := 3; i <= 6; i++ {
				res := mustQuery(t, st)
				if !strings.Contains(res.PlanExplain(), c.plan) {
					t.Fatalf("execution %d does not plan through the view (%s):\n%s", i, c.plan, res.PlanExplain())
				}
				if !res.rel.Equal(first.rel) {
					t.Fatalf("execution %d through the view returns different rows (or another order)", i)
				}
			}
			if got := db.catalogEpoch.Load(); got != epoch+1 {
				t.Fatalf("epoch moved to %d after the adoption at %d", got, epoch+1)
			}
			m := db.Metrics()
			if m.AVAdopted != 1 || m.AVDeclined != 0 || m.AVBytes <= 0 {
				t.Fatalf("metrics: adopted %d declined %d bytes %d", m.AVAdopted, m.AVDeclined, m.AVBytes)
			}
			var prom strings.Builder
			if err := db.WriteMetrics(&prom); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"dqo_av_adopted_total 1\n", "dqo_av_declined_total 0\n", fmt.Sprintf("dqo_av_bytes %d\n", m.AVBytes)} {
				if !strings.Contains(prom.String(), want) {
					t.Fatalf("exposition misses %q", want)
				}
			}
			if desc = db.DescribeAVs(); !strings.Contains(desc, "builds_saved=4") || !strings.Contains(desc, fmt.Sprintf("%d bytes", m.AVBytes)) {
				t.Fatalf("DescribeAVs after four joins through the view:\n%s", desc)
			}

			// Row positions survive compression, so the view does.
			if err := db.CompressTable("S"); err != nil {
				t.Fatal(err)
			}
			if res := mustQuery(t, st); !strings.Contains(db.DescribeAVs(), "adopted from a join") || !res.rel.Equal(first.rel) {
				t.Fatalf("CompressTable lost the view or changed the answer:\n%s", db.DescribeAVs())
			}
			if err := db.DecompressTable("S"); err != nil {
				t.Fatal(err)
			}

			db.DropAVs()
			if !strings.Contains(db.DescribeAVs(), "empty") || db.Metrics().AVBytes != 0 {
				t.Fatalf("DropAVs left an adopted view behind:\n%s", db.DescribeAVs())
			}
			if res := mustQuery(t, st); strings.Contains(res.PlanExplain(), "via av:") || !res.rel.Equal(first.rel) {
				t.Fatalf("after DropAVs the statement still plans through a view:\n%s", res.PlanExplain())
			}
			mustQuery(t, st)
			if db.Metrics().AVAdopted != 2 {
				t.Fatalf("the second build after DropAVs was not adopted again: %d adoptions", db.Metrics().AVAdopted)
			}
		})
	}
}

// TestAdoptConcurrentExecutions: eight goroutines executing one prepared join
// end with exactly one adopted view, identical results, and an epoch that
// moved once — the executions that had planned a build before the adoption
// offer a table the catalog already holds.
func TestAdoptConcurrentExecutions(t *testing.T) {
	db := adoptDB(t, false)
	st := mustPrepare(t, db, ModeDQO, paperSQL)
	epoch := db.catalogEpoch.Load()
	const goroutines, rounds = 8, 6
	results := make([][]*Result, goroutines)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := st.Query(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], res)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	viaView := 0
	for _, rs := range results {
		for _, res := range rs {
			if !res.rel.Equal(results[0][0].rel) {
				t.Fatal("concurrent executions disagree")
			}
			if strings.Contains(res.PlanExplain(), "via av:hashidx(S.R_ID)") {
				viaView++
			}
		}
	}
	m := db.Metrics()
	if m.AVAdopted != 1 || strings.Count(db.DescribeAVs(), "adopted from a join") != 1 {
		t.Fatalf("%d adoptions, catalog:\n%s", m.AVAdopted, db.DescribeAVs())
	}
	if got := db.catalogEpoch.Load(); got != epoch+1 {
		t.Fatalf("epoch moved %d times, want once", got-epoch)
	}
	if viaView == 0 {
		t.Fatal("no execution ever planned through the adopted view")
	}
}

// TestAdoptedViewAndReRegister: replacing the indexed table drops its adopted
// view; a query that had planned with the view still finishes with the answer
// over the table it planned against, and the statement's next execution
// answers from the new table, building again.
func TestAdoptedViewAndReRegister(t *testing.T) {
	db := adoptDB(t, false)
	st := mustPrepare(t, db, ModeDQO, paperSQL)
	old := mustQuery(t, st)
	mustQuery(t, st)
	if !strings.Contains(db.DescribeAVs(), "av:hashidx(S.R_ID)") {
		t.Fatalf("no adopted view to start from:\n%s", db.DescribeAVs())
	}
	// A query in flight: planned with the view, not yet executed.
	inFlight, _, err := db.compile(ModeDQO, paperSQL, queryConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inFlight.Best.Explain(), "via av:hashidx(S.R_ID)") {
		t.Fatalf("the in-flight plan does not use the view:\n%s", inFlight.Best.Explain())
	}

	// Same seed: the same R, and a shorter S referring to it.
	_, s2 := datagen.FKPair(7, datagen.FKConfig{RRows: 5000, SRows: 9000, AGroups: 500, RSorted: true})
	if err := db.Register(&Table{rel: s2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(db.DescribeAVs(), "empty") || db.Metrics().AVBytes != 0 {
		t.Fatalf("re-registering S kept its view:\n%s", db.DescribeAVs())
	}
	got, err := core.Execute(inFlight.Best)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(old.rel) {
		t.Fatal("the query that planned with the dropped view did not finish with its own table's answer")
	}
	fresh := mustQuery(t, st)
	if strings.Contains(fresh.PlanExplain(), "via av:") {
		t.Fatalf("the statement still plans through the dropped view:\n%s", fresh.PlanExplain())
	}
	counts, err := fresh.Int64Column("count_star")
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total != 9000 {
		t.Fatalf("the next execution counts %d joined rows, want the new table's 9000", total)
	}
}

// TestAdoptBudget: an offer that does not fit is declined without moving the
// epoch or the plan, and a zero budget turns adoption off altogether — the
// first, second and tenth execution explain byte for byte alike and every
// execution after the first is a template hit.
func TestAdoptBudget(t *testing.T) {
	db := adoptDB(t, false)
	db.avs.SetBudget(100 << 10) // S's table is about 280 KB
	st := mustPrepare(t, db, ModeDQO, paperSQL)
	epoch := db.catalogEpoch.Load()
	first := mustQuery(t, st)
	for i := 0; i < 3; i++ {
		if res := mustQuery(t, st); res.PlanExplain() != first.PlanExplain() {
			t.Fatalf("plan moved under a full budget:\n%s", res.PlanExplain())
		}
	}
	if m := db.Metrics(); m.AVAdopted != 0 || m.AVDeclined != 1 || m.AVBytes != 0 ||
		db.catalogEpoch.Load() != epoch || !strings.Contains(db.DescribeAVs(), "empty") {
		t.Fatalf("full budget: adopted %d declined %d bytes %d epoch %d → %d\n%s",
			m.AVAdopted, m.AVDeclined, m.AVBytes, epoch, db.catalogEpoch.Load(), db.DescribeAVs())
	}
	// Room for R's directory, still none for S's table: the small one gets in.
	dense := adoptDB(t, true)
	dense.avs.SetBudget(100 << 10)
	dst := mustPrepare(t, dense, ModeDQO, paperSQL)
	mustQuery(t, dst)
	mustQuery(t, dst)
	if m := dense.Metrics(); m.AVAdopted != 1 || m.AVBytes > 100<<10 {
		t.Fatalf("a 40 KB directory under a 100 KB budget: adopted %d, bytes %d", m.AVAdopted, m.AVBytes)
	}

	off := adoptDB(t, false)
	off.avs.SetBudget(0)
	ost := mustPrepare(t, off, ModeDQO, paperSQL)
	epoch = off.catalogEpoch.Load()
	want := mustQuery(t, ost)
	for i := 2; i <= 10; i++ {
		res := mustQuery(t, ost)
		if (i == 2 || i == 10) && res.PlanExplain() != want.PlanExplain() {
			t.Fatalf("execution %d explains differently with adoption off:\n%s", i, res.PlanExplain())
		}
		if !res.rel.Equal(want.rel) {
			t.Fatalf("execution %d answers differently", i)
		}
	}
	hits, misses := off.PlanCacheStats()
	if m := off.Metrics(); hits != 9 || misses != 1 || m.AVAdopted+m.AVDeclined != 0 || off.catalogEpoch.Load() != epoch {
		t.Fatalf("adoption off: %d hits %d misses, adopted %d declined %d", hits, misses, m.AVAdopted, m.AVDeclined)
	}
}

// TestAdoptUnderTheNamedTable: the view goes under the table the statement
// names, through its alias — also when another registered table, earlier in
// the alphabet, shares the very same column slices — so the statement's next
// plan finds it; a statement over the twin adopts its own.
func TestAdoptUnderTheNamedTable(t *testing.T) {
	db := adoptDB(t, false)
	db.mu.RLock()
	s := db.tables["S"]
	db.mu.RUnlock()
	if err := db.Register(&Table{rel: storage.MustNewRelation("A_TWIN", s.Columns()...)}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ table, view string }{{"S", "av:hashidx(S.R_ID)"}, {"A_TWIN", "av:hashidx(A_TWIN.R_ID)"}} {
		st := mustPrepare(t, db, ModeDQO, "SELECT r.A, COUNT(*) FROM R r JOIN "+c.table+" x ON r.ID = x.R_ID GROUP BY r.A")
		mustQuery(t, st)
		mustQuery(t, st)
		if desc := db.DescribeAVs(); !strings.Contains(desc, c.view) {
			t.Fatalf("joining %s: want %s adopted, catalog:\n%s", c.table, c.view, desc)
		}
		if res := mustQuery(t, st); !strings.Contains(res.PlanExplain(), "via "+c.view) {
			t.Fatalf("joining %s: the third execution does not plan through %s:\n%s", c.table, c.view, res.PlanExplain())
		}
	}
	if m := db.Metrics(); m.AVAdopted != 2 {
		t.Fatalf("%d views adopted, want one per named table:\n%s", m.AVAdopted, db.DescribeAVs())
	}
}

// TestNeverAdoptedBuilds: three executions each of a join whose build side is
// under a morsel of rows and of a spill twin under a real memory limit leave
// the catalog, the counters and the epoch alone. (A build side filtered by a
// WHERE conjunct is TestAdoptSkipsFilteredBuildSide's; core's
// TestOffersOnlyWholeBaseTableBuilds covers hand-built filtered inputs, the
// forced one-byte quota and the fact that none of these is even offered.)
func TestNeverAdoptedBuilds(t *testing.T) {
	check := func(name string, db *DB, run func() *Result) {
		t.Helper()
		epoch := db.catalogEpoch.Load()
		want := run()
		for i := 0; i < 2; i++ {
			if res := run(); res.PlanExplain() != want.PlanExplain() || !res.rel.Equal(want.rel) {
				t.Fatalf("%s: plan or answer moved between executions", name)
			}
		}
		if m := db.Metrics(); m.AVAdopted+m.AVDeclined != 0 || db.catalogEpoch.Load() != epoch || !strings.Contains(db.DescribeAVs(), "empty") {
			t.Fatalf("%s: adopted %d declined %d, catalog:\n%s", name, m.AVAdopted, m.AVDeclined, db.DescribeAVs())
		}
	}

	small := testDB(t, true, false, false) // 1 000 ⋈ 4 500: the build on R is under a morsel
	sst := mustPrepare(t, small, ModeSQO, paperSQL)
	check("build under a morsel", small, func() *Result { return mustQuery(t, sst) })

	big := spillJoinDB(t, 60_000)
	bst := mustPrepare(t, big, ModeDQOCalibrated, "SELECT * FROM bigr JOIN bigs ON bigr.key = bigs.key")
	dir := t.TempDir()
	check("spill twin", big, func() *Result {
		res := mustQuery(t, bst, WithMemoryLimit(1<<20), WithSpillDir(dir))
		if res.SpilledBytes() == 0 || !strings.Contains(res.PlanExplain(), "[spill]") {
			t.Fatalf("the join did not spill:\n%s", res.PlanExplain())
		}
		return res
	})
}

// TestAdoptSkipsFilteredBuildSide: the binder puts a WHERE conjunct on the
// scan it reads, so a join whose build side carries one builds over a filtered
// copy, which is never offered — three executions leave the catalog, the
// counters and the epoch alone — while the same join with its conjunct on the
// probe side builds over the bare scan and adopts on its second build.
func TestAdoptSkipsFilteredBuildSide(t *testing.T) {
	const join = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE "
	db := adoptDB(t, false)
	built := mustPrepare(t, db, ModeDQO, join+"S.M < 50 GROUP BY R.A")
	epoch := db.catalogEpoch.Load()
	want := mustQuery(t, built)
	if plan := want.PlanExplain(); !strings.Contains(plan, "[build right]") || strings.Index(plan, "Filter((S.M < 50))") < strings.Index(plan, "J(") {
		t.Fatalf("the join does not build on the filtered S:\n%s", plan)
	}
	for i := 2; i <= 3; i++ {
		if res := mustQuery(t, built); res.PlanExplain() != want.PlanExplain() || !res.rel.Equal(want.rel) {
			t.Fatalf("execution %d: plan or answer moved", i)
		}
	}
	if m := db.Metrics(); m.AVAdopted+m.AVDeclined != 0 || db.catalogEpoch.Load() != epoch || !strings.Contains(db.DescribeAVs(), "empty") {
		t.Fatalf("a filtered build side was adopted (%d) or declined (%d):\n%s", m.AVAdopted, m.AVDeclined, db.DescribeAVs())
	}

	probed := mustPrepare(t, db, ModeDQO, join+"R.A < 300 GROUP BY R.A")
	first := mustQuery(t, probed)
	if plan := first.PlanExplain(); !strings.Contains(plan, "[build right]") || strings.Index(plan, "Filter((R.A < 300))") < strings.Index(plan, "J(") {
		t.Fatalf("the join does not build on the bare S under the filtered R:\n%s", plan)
	}
	mustQuery(t, probed)
	if m := db.Metrics(); m.AVAdopted != 1 || !strings.Contains(db.DescribeAVs(), "av:hashidx(S.R_ID)") {
		t.Fatalf("the second build over the bare S was not adopted (%d):\n%s", m.AVAdopted, db.DescribeAVs())
	}
	if res := mustQuery(t, probed); !strings.Contains(res.PlanExplain(), "via av:hashidx(S.R_ID)") || !res.rel.Equal(first.rel) {
		t.Fatalf("the third execution does not probe the adopted view, or answers differently:\n%s", res.PlanExplain())
	}
}

// TestJoinAnswersAcrossViewOrigins is the differential at the DB: the
// Figure-5 statement and a plain join keeping the left columns, the right
// columns or both, with the join's table built fresh (adoption off), adopted,
// or materialised explicitly, under the left input or the right, serial and
// at two workers. Adopted equals fresh row for row — it is the same table in
// the same roles; an explicit view may commute the join, so it is held to the
// same multiset.
func TestJoinAnswersAcrossViewOrigins(t *testing.T) {
	queries := []string{
		paperSQL,
		"SELECT R.ID, R.A FROM R JOIN S ON R.ID = S.R_ID",
		"SELECT S.M FROM R JOIN S ON R.ID = S.R_ID",
		"SELECT R.A, S.M, S.R_ID FROM R JOIN S ON R.ID = S.R_ID",
	}
	for _, dense := range []bool{false, true} {
		for _, mode := range []Mode{ModeDQO, ModeDQOCalibrated} {
			for _, workers := range []int{1, 2} {
				for _, q := range queries {
					label := fmt.Sprintf("dense=%v/%s/workers=%d/%s", dense, mode, workers, q)
					fresh := adoptDB(t, dense)
					fresh.avs.SetBudget(0)
					want := mustQuery(t, mustPrepare(t, fresh, mode, q), WithWorkers(workers))

					adopting := adoptDB(t, dense)
					ast := mustPrepare(t, adopting, mode, q)
					for i := 1; i <= 4; i++ {
						res := mustQuery(t, ast, WithWorkers(workers))
						if !res.rel.Equal(want.rel) {
							t.Fatalf("%s: execution %d differs from the fresh build's rows\n%s", label, i, res.PlanExplain())
						}
					}

					for _, av := range []struct {
						kind          AVKind
						table, column string
					}{{AVHashIndex, "S", "R_ID"}, {AVHashIndex, "R", "ID"}, {AVSPH, "R", "ID"}} {
						if av.kind == AVSPH && !dense {
							continue
						}
						explicit := adoptDB(t, dense)
						explicit.avs.SetBudget(0)
						if err := explicit.MaterializeAV(av.kind, av.table, av.column); err != nil {
							t.Fatal(err)
						}
						res := mustQuery(t, mustPrepare(t, explicit, mode, q), WithWorkers(workers))
						got, ref := naive.Rows(res.rel), naive.Rows(want.rel)
						if len(got) != len(ref) {
							t.Fatalf("%s: %d rows through %v(%s.%s), want %d", label, len(got), av.kind, av.table, av.column, len(ref))
						}
						for i := range got {
							if got[i] != ref[i] {
								t.Fatalf("%s: rows through the explicit view on %s.%s differ\n%s", label, av.table, av.column, res.PlanExplain())
							}
						}
					}
				}
			}
		}
	}
}
