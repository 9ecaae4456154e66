package dqo

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dqo/internal/cost"
	"dqo/internal/datagen"
	"dqo/internal/physio"
	"dqo/internal/sql"
)

// testDB builds a DB with the paper's R/S schema at reduced scale.
func testDB(t testing.TB, rSorted, sSorted, dense bool) *DB {
	t.Helper()
	cfg := datagen.FKConfig{RRows: 1000, SRows: 4500, AGroups: 100,
		RSorted: rSorted, SSorted: sSorted, Dense: dense}
	r, s := datagen.FKPair(5, cfg)
	db := Open()
	if err := db.Register(&Table{rel: r}); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(&Table{rel: s}); err != nil {
		t.Fatal(err)
	}
	return db
}

const paperSQL = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"

func TestQueryAllModes(t *testing.T) {
	db := testDB(t, false, false, true)
	var ref *Result
	for _, m := range []Mode{ModeSQO, ModeDQO, ModeDQOCalibrated} {
		res, err := db.Query(context.Background(), m, paperSQL+" ORDER BY R.A")
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.NumRows() != 100 {
			t.Fatalf("%s: %d rows", m, res.NumRows())
		}
		if ref == nil {
			ref = res
			continue
		}
		a, _ := ref.Int64Column("count_star")
		b, _ := res.Int64Column("count_star")
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s disagrees at row %d", m, i)
			}
		}
	}
}

func TestQueryModesPickDifferentPlans(t *testing.T) {
	db := testDB(t, false, false, true)
	sqo, err := db.Explain(ModeSQO, paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	dqo, err := db.Explain(ModeDQO, paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sqo, "HJ") || !strings.Contains(sqo, "HG") {
		t.Fatalf("SQO plan unexpected:\n%s", sqo)
	}
	if !strings.Contains(dqo, "SPHJ") || !strings.Contains(dqo, "SPHG") {
		t.Fatalf("DQO plan unexpected:\n%s", dqo)
	}
}

func TestExplainDeepShowsGranules(t *testing.T) {
	db := testDB(t, false, false, true)
	out, err := db.Explain(ModeDQO, paperSQL, ExplainGranules())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"granule tree", "partitionBy", "«molecule»"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain(ExplainGranules) missing %q:\n%s", want, out)
		}
	}
}

func TestBuilderAndTableAPI(t *testing.T) {
	tab, err := NewTableBuilder("t").
		Uint32("k", []uint32{2, 1, 2}).
		Int64("v", []int64{10, 20, 30}).
		String("s", []string{"x", "y", "x"}).
		Float64("f", []float64{1, 2, 3}).
		Uint64("u", []uint64{1, 2, 3}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "t" || tab.NumRows() != 3 || len(tab.Columns()) != 5 {
		t.Fatalf("table metadata wrong: %v", tab.Columns())
	}
	if _, err := NewTableBuilder("bad").Uint32("a", []uint32{1}).Int64("b", nil).Build(); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	db := Open()
	if err := db.Register(tab); err != nil {
		t.Fatal(err)
	}
	got, ok := db.Table("t")
	if !ok || got.NumRows() != 3 {
		t.Fatal("table lookup failed")
	}
	if len(db.Tables()) != 1 {
		t.Fatal("table listing wrong")
	}
	res, err := db.Query(context.Background(), ModeDQO, "SELECT k, SUM(v) AS total FROM t GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	keys, err := res.Uint32Column("t.k")
	if err != nil {
		t.Fatal(err)
	}
	totals, err := res.Int64Column("total")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != 1 || totals[0] != 20 || totals[1] != 40 {
		t.Fatalf("result wrong: %v %v", keys, totals)
	}
}

func TestStringGroupingViaSQL(t *testing.T) {
	tab := NewTableBuilder("orders").
		String("city", []string{"ber", "par", "ber", "rom", "par", "ber"}).
		Int64("amount", []int64{10, 20, 30, 40, 50, 60}).
		MustBuild()
	db := Open()
	if err := db.Register(tab); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), ModeDQO, "SELECT city, SUM(amount) AS total FROM orders GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("%d groups", res.NumRows())
	}
	// Dict codes are dense: DQO should choose SPHG for string grouping.
	if !strings.Contains(res.PlanExplain(), "SPHG") {
		t.Fatalf("string grouping did not use SPH:\n%s", res.PlanExplain())
	}
	got := map[string]string{}
	for i := 0; i < res.NumRows(); i++ {
		row := res.Row(i)
		got[row[0]] = row[1]
	}
	if got["ber"] != "100" || got["par"] != "70" || got["rom"] != "40" {
		t.Fatalf("totals wrong: %v", got)
	}
}

func TestWhereAndLimit(t *testing.T) {
	db := testDB(t, true, true, true)
	res, err := db.Query(context.Background(), ModeDQO, "SELECT ID, A FROM R WHERE A < 10 ORDER BY ID LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 7 {
		t.Fatalf("LIMIT ignored: %d rows", res.NumRows())
	}
	ids, err := res.Uint32Column("R.ID")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] > ids[i] {
			t.Fatal("ORDER BY violated")
		}
	}
}

func TestAVsThroughFacade(t *testing.T) {
	db := testDB(t, false, false, true)
	if err := db.MaterializeAV(AVSorted, "R", "ID"); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeAV(AVSPH, "R", "ID"); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeAV(AVSPH, "S", "R_ID"); err == nil {
		t.Fatal("SPH AV over non-dense column accepted")
	}
	// The SPH-directory AV should now appear in DQO plans.
	exp, err := db.Explain(ModeDQO, paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp, "av:sph(R.ID)") {
		t.Fatalf("AV not used:\n%s", exp)
	}
	// An index under the right input is found too, and probing it with the
	// 1 000 rows of R (4·|R|) is cheaper than probing R's directory with the
	// 4 500 of S: the join commutes.
	if err := db.MaterializeAV(AVHashIndex, "S", "R_ID"); err != nil {
		t.Fatal(err)
	}
	if exp, err = db.Explain(ModeDQO, paperSQL); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp, "via av:hashidx(S.R_ID) [build right]") {
		t.Fatalf("index under the right input not used:\n%s", exp)
	}
	desc := db.DescribeAVs()
	for _, want := range []string{"av:sorted(R.ID)", "av:sph(R.ID)", "av:hashidx(S.R_ID)"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("DescribeAVs missing %s:\n%s", want, desc)
		}
	}
	res, err := db.Query(context.Background(), ModeDQO, paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 100 {
		t.Fatalf("%d rows", res.NumRows())
	}
	db.DropAVs()
	if !strings.Contains(db.DescribeAVs(), "empty") {
		t.Fatal("DropAVs left views behind")
	}
}

// TestMaterializeAVRetiresPlanInFlight: a template being planned while a view
// is materialised stores its view-less plan after the view arrives. That plan
// must not answer the next execution: MaterializeAV moves the catalog epoch,
// so the next Explain plans afresh, through the view.
func TestMaterializeAVRetiresPlanInFlight(t *testing.T) {
	db := testDB(t, false, false, true)
	db.EnablePlanCache(true)
	stmt, err := sql.Parse(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	node, err := sql.Bind(stmt, catalogView{db})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := ModeDQO.coreMode()
	if err != nil {
		t.Fatal(err)
	}
	cm = db.overViews(cm, stmt)
	key := planKey(ModeDQO.String()+"|"+sql.Fingerprint(stmt), cm, db.catalogEpoch.Load())

	// The planner parks at the grouping site, above the join it has planned.
	park := &parkingModel{Model: cm.Model, entered: make(chan struct{}), release: make(chan struct{})}
	cm.Model = park
	entered, release := park.entered, park.release
	planned := make(chan error, 1)
	go func() {
		_, _, err := db.planCache.OptimizeTemplate(key, node, cm)
		planned <- err
	}()
	select {
	case <-entered:
	case err := <-planned:
		t.Fatalf("the planner never reached the grouping site (err=%v)", err)
	}
	matErr := db.MaterializeAV(AVHashIndex, "S", "R_ID")
	close(release)
	if err := <-planned; err != nil {
		t.Fatal(err)
	}
	if matErr != nil {
		t.Fatal(matErr)
	}

	exp, err := db.Explain(ModeDQO, paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp, "via av:hashidx(S.R_ID)") {
		t.Fatalf("the plan stored in flight answers without the view:\n%s", exp)
	}
}

// parkingModel is a cost model that blocks the first grouping it prices
// until release is closed, after closing entered.
type parkingModel struct {
	cost.Model
	once             sync.Once
	entered, release chan struct{}
}

func (m *parkingModel) Group(c physio.GroupChoice, rows, groups float64) float64 {
	m.once.Do(func() {
		close(m.entered)
		<-m.release
	})
	return m.Model.Group(c, rows, groups)
}

func TestSelectAVs(t *testing.T) {
	db := testDB(t, false, false, true)
	report, err := db.SelectAVs(ModeDQO, map[string]float64{paperSQL: 10}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "selection") {
		t.Fatalf("report = %q", report)
	}
	if strings.Contains(db.DescribeAVs(), "empty") {
		t.Fatal("SelectAVs installed nothing for a workload that benefits")
	}
	if _, err := db.SelectAVs(ModeDQO, map[string]float64{"SELECT broken": 1}, 1); err == nil {
		t.Fatal("broken workload query accepted")
	}
}

func TestPlanCacheThroughFacade(t *testing.T) {
	db := testDB(t, true, true, true)
	db.EnablePlanCache(true)
	if _, err := db.Query(context.Background(), ModeDQO, paperSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(context.Background(), ModeDQO, paperSQL); err != nil {
		t.Fatal(err)
	}
	hits, misses := db.PlanCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d/%d", hits, misses)
	}
	// Different mode: separate cache entry.
	if _, err := db.Query(context.Background(), ModeSQO, paperSQL); err != nil {
		t.Fatal(err)
	}
	if _, m := db.PlanCacheStats(); m != 2 {
		t.Fatalf("misses = %d, want 2", m)
	}
	db.EnablePlanCache(false)
}

func TestQueryErrors(t *testing.T) {
	db := testDB(t, true, true, true)
	cases := []string{
		"not sql at all",
		"SELECT nosuch FROM R",
		"SELECT x FROM nosuchtable",
	}
	for _, q := range cases {
		if _, err := db.Query(context.Background(), ModeDQO, q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
	if _, err := db.Query(context.Background(), Mode(99), "SELECT ID FROM R"); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := db.Register(nil); err == nil {
		t.Error("nil table registered")
	}
	if err := db.MaterializeAV(AVSorted, "nosuch", "x"); err == nil {
		t.Error("AV on unknown table accepted")
	}
}

func TestResultString(t *testing.T) {
	db := testDB(t, true, true, true)
	res, err := db.Query(context.Background(), ModeDQO, "SELECT ID FROM R ORDER BY ID LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "R.ID") || !strings.Contains(s, "(2 rows)") {
		t.Fatalf("String rendering wrong:\n%s", s)
	}
	if res.EstimatedCost() < 0 {
		t.Fatal("negative cost")
	}
}

func TestColumnAccessorErrors(t *testing.T) {
	db := testDB(t, true, true, true)
	res, err := db.Query(context.Background(), ModeDQO, "SELECT ID FROM R LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Uint32Column("missing"); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := res.Int64Column("R.ID"); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := res.Float64Column("R.ID"); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestCorrelationDeclarationAPI(t *testing.T) {
	tab := NewTableBuilder("t").
		Uint32("k", []uint32{3, 1, 2}).
		Uint32("d", []uint32{30, 10, 20}).
		MustBuild()
	tab.DeclareCorrelation("k", "d")
	if err := tab.VerifyCorrelation("k", "d"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCSV(t *testing.T) {
	csv := "id,name,score\n1,ada,9.5\n2,bob,7.25\n"
	tab, err := LoadCSV("people", strings.NewReader(csv), []CSVColumn{
		{"id", Uint32Col}, {"name", StringCol}, {"score", Float64Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := Open()
	if err := db.Register(tab); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), ModeDQO, "SELECT name, score FROM people WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Row(0)[0] != "bob" {
		t.Fatalf("CSV query wrong: %s", res)
	}
	if _, err := LoadCSV("bad", strings.NewReader("x\nnotanum\n"), []CSVColumn{{"x", Uint32Col}}); err == nil {
		t.Fatal("bad CSV accepted")
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := testDB(t, false, false, true)
	if err := db.MaterializeAV(AVSPH, "R", "ID"); err != nil {
		t.Fatal(err)
	}
	db.EnablePlanCache(true)
	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 10; i++ {
				mode := ModeDQO
				if (w+i)%2 == 0 {
					mode = ModeSQO
				}
				res, err := db.Query(context.Background(), mode, paperSQL)
				if err != nil {
					errc <- err
					return
				}
				if res.NumRows() != 100 {
					errc <- fmt.Errorf("worker %d: %d rows", w, res.NumRows())
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReregisterDropsStaleAVs(t *testing.T) {
	db := testDB(t, false, false, true)
	if err := db.MaterializeAV(AVSPH, "R", "ID"); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeAV(AVHashIndex, "S", "R_ID"); err != nil {
		t.Fatal(err)
	}
	// Replace R with fresh (different) data: its AVs are stale and must go;
	// S's AV must survive.
	cfg := datagen.FKConfig{RRows: 500, SRows: 2000, AGroups: 50, Dense: true}
	r2, _ := datagen.FKPair(99, cfg)
	if err := db.Register(&Table{rel: r2}); err != nil {
		t.Fatal(err)
	}
	desc := db.DescribeAVs()
	if strings.Contains(desc, "av:sph(R.ID)") {
		t.Fatalf("stale AV survived re-registration:\n%s", desc)
	}
	if !strings.Contains(desc, "av:hashidx(S.R_ID)") {
		t.Fatalf("unrelated AV dropped:\n%s", desc)
	}
	// And queries against the replaced table still work. (S references old
	// R ids that may not join the new, smaller R — that's fine.)
	if _, err := db.Query(context.Background(), ModeDQO, "SELECT A, COUNT(*) FROM R GROUP BY A"); err != nil {
		t.Fatal(err)
	}
}

func TestExplainUnnest(t *testing.T) {
	db := testDB(t, false, false, true)
	out, err := db.Explain(ModeDQO, paperSQL, ExplainUnnesting())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"unnesting", "step 0 (physicality 0.00)", "step 3", "partitionBy", "⋈", "Γ"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain(ExplainUnnesting) missing %q:\n%s", want, out)
		}
	}
}

func TestCrackedAVThroughFacade(t *testing.T) {
	db := testDB(t, false, false, true)
	if err := db.MaterializeAV(AVCracked, "R", "A"); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeAV(AVCracked, "nosuch", "A"); err == nil {
		t.Fatal("cracked AV on unknown table accepted")
	}
	const q = "SELECT A, COUNT(*) FROM R WHERE A >= 10 AND A < 30 GROUP BY A ORDER BY A"
	exp, err := db.Explain(ModeDQO, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp, "av:crack(R.A)") {
		t.Fatalf("cracked AV not used:\n%s", exp)
	}
	res, err := db.Query(context.Background(), ModeDQO, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 20 {
		t.Fatalf("%d groups, want 20", res.NumRows())
	}
	keys, _ := res.Uint32Column("R.A")
	counts, _ := res.Int64Column("count_star")
	// Reference without the AV.
	db2 := testDB(t, false, false, true)
	ref, err := db2.Query(context.Background(), ModeDQO, q)
	if err != nil {
		t.Fatal(err)
	}
	rkeys, _ := ref.Uint32Column("R.A")
	rcounts, _ := ref.Int64Column("count_star")
	for i := range rkeys {
		if keys[i] != rkeys[i] || counts[i] != rcounts[i] {
			t.Fatalf("cracked result differs at %d", i)
		}
	}
}
