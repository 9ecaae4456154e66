package av

import (
	"strings"
	"testing"

	"dqo/internal/core"
	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/hashtable"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

func fkTables(t testing.TB, rSorted, sSorted, dense bool) (r, s *storage.Relation, q logical.Node) {
	t.Helper()
	cfg := datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200,
		RSorted: rSorted, SSorted: sSorted, Dense: dense}
	r, s = datagen.FKPair(11, cfg)
	q = &logical.GroupBy{
		Input: &logical.Join{
			Left:    &logical.Scan{Table: "R", Rel: r},
			Right:   &logical.Scan{Table: "S", Rel: s},
			LeftKey: "ID", RightKey: "R_ID",
		},
		Key:  "A",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}},
	}
	return r, s, q
}

func TestMaterializeSorted(t *testing.T) {
	r, _, _ := fkTables(t, false, false, true)
	v, err := MaterializeSorted("R", r, "ID")
	if err != nil {
		t.Fatal(err)
	}
	if v.Label() != "av:sorted(R.ID)" {
		t.Fatalf("label = %q", v.Label())
	}
	rel := v.Relation()
	if !rel.MustColumn("ID").Stats().Sorted {
		t.Fatal("sorted projection is not sorted")
	}
	if rel.NumRows() != r.NumRows() {
		t.Fatal("projection changed cardinality")
	}
	// Correlations survive the permutation.
	if len(rel.Corrs()) != 1 {
		t.Fatal("correlation declaration lost")
	}
	if err := rel.VerifyCorr("ID", "A"); err != nil {
		t.Fatal(err)
	}
	if v.SizeBytes <= 0 {
		t.Fatal("missing size accounting")
	}
}

func TestMaterializeHashIndexProbe(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{7, 3, 7, 9}))
	v, err := MaterializeHashIndex("t", rel, "k", hashtable.Murmur3Fin)
	if err != nil {
		t.Fatal(err)
	}
	build, probe := make([]int32, 2), make([]int32, 2)
	if n := v.Serve(0).CountBatch([]uint32{4, 7}); n != 2 {
		t.Fatalf("probe(4, 7) counts %d rows, want 2 (none for 4)", n)
	}
	if n := v.Serve(0).FillBatch([]uint32{4, 7}, 10, build, probe); n != 2 || build[0] != 2 || build[1] != 0 || probe[0] != 11 || probe[1] != 11 {
		t.Fatalf("probe(4, 7) = %d pairs, build %v probe %v, want build [2 0] probe [11 11]", n, build, probe)
	}
	if v.SPH() {
		t.Fatal("hash index claims SPH")
	}
}

func TestMaterializeSPH(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{12, 10, 11, 10}))
	v, err := MaterializeSPH("t", rel, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !v.SPH() {
		t.Fatal("SPH directory does not claim SPH")
	}
	build, probe := make([]int32, 2), make([]int32, 2)
	keys := []uint32{9, 10, 13} // below the domain, inside, above
	if n := v.Serve(0).CountBatch(keys); n != 2 {
		t.Fatalf("probe(9, 10, 13) counts %d rows, want 2 (only for 10)", n)
	}
	if n := v.Serve(0).FillBatch(keys, 0, build, probe); n != 2 || build[0] != 3 || build[1] != 1 || probe[0] != 1 || probe[1] != 1 {
		t.Fatalf("probe(9, 10, 13) = %d pairs, build %v probe %v, want build [3 1] probe [1 1]", n, build, probe)
	}

	sparse := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{1, 100}))
	if _, err := MaterializeSPH("t", sparse, "k"); err == nil {
		t.Fatal("SPH over sparse column accepted")
	}
}

func TestMaterializeErrors(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewFloat64("f", []float64{1}))
	if _, err := MaterializeHashIndex("t", rel, "f", 0); err == nil {
		t.Fatal("hash index on float column accepted")
	}
	if _, err := MaterializeHashIndex("t", rel, "zz", 0); err == nil {
		t.Fatal("hash index on missing column accepted")
	}
	if _, err := MaterializeSorted("t", rel, "f"); err == nil {
		t.Fatal("sorted projection by float column accepted")
	}
}

func TestCatalogAddDropReplace(t *testing.T) {
	r, _, _ := fkTables(t, false, false, true)
	c := NewCatalog()
	v1, _ := MaterializeSorted("R", r, "ID")
	v2, _ := MaterializeSorted("R", r, "ID")
	c.Add(v1)
	c.Add(v2) // replace
	if len(c.Views()) != 1 {
		t.Fatalf("%d views after replace, want 1", len(c.Views()))
	}
	if !c.Drop(SortedProjection, "R", "ID") {
		t.Fatal("drop failed")
	}
	if c.Drop(SortedProjection, "R", "ID") {
		t.Fatal("double drop succeeded")
	}
	if c.TotalBytes() != 0 {
		t.Fatal("bytes not zero after drop")
	}
}

func TestCatalogIndexPreference(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{0, 1, 2}))
	c := NewCatalog()
	h, _ := MaterializeHashIndex("t", rel, "k", 0)
	c.Add(h)
	idx, ok := c.Index("t", "k")
	if !ok || idx.SPH() {
		t.Fatal("hash index not served")
	}
	s, _ := MaterializeSPH("t", rel, "k")
	c.Add(s)
	idx, ok = c.Index("t", "k")
	if !ok || !idx.SPH() {
		t.Fatal("SPH directory should win over hash index")
	}
	if _, ok := c.Index("t", "zz"); ok {
		t.Fatal("phantom index served")
	}
}

func TestSortedProjectionAVChangesPlans(t *testing.T) {
	// Unsorted relations + sorted projections on the join keys: the
	// optimiser should now find the order-based plan at no enforcer cost.
	r, s, q := fkTables(t, false, false, true)
	cat := NewCatalog()
	for _, spec := range []struct {
		table string
		rel   *storage.Relation
		col   string
	}{{"R", r, "ID"}, {"S", s, "R_ID"}} {
		v, err := MaterializeSorted(spec.table, spec.rel, spec.col)
		if err != nil {
			t.Fatal(err)
		}
		cat.Add(v)
	}

	plain, err := core.Optimize(q, core.SQO())
	if err != nil {
		t.Fatal(err)
	}
	withAV, err := core.Optimize(q, core.SQO().WithAVs(cat, nil))
	if err != nil {
		t.Fatal(err)
	}
	if withAV.Best.Cost >= plain.Best.Cost {
		t.Fatalf("AV did not reduce cost: %g vs %g", withAV.Best.Cost, plain.Best.Cost)
	}
	if withAV.Best.Children[0].Join.Kind != physical.OJ {
		t.Fatalf("AV plan join = %s, want OJ\n%s", withAV.Best.Children[0].Label(), withAV.Best.Explain())
	}
	if !strings.Contains(withAV.Best.Explain(), "av:sorted") {
		t.Fatalf("AV not visible in plan:\n%s", withAV.Best.Explain())
	}

	// The AV-backed plan must execute and agree with the plain plan.
	a, err := core.Execute(plain.Best)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Execute(withAV.Best)
	if err != nil {
		t.Fatal(err)
	}
	as, _ := physical.SortRel(a, "A", sortx.Radix, 1, nil)
	bs, _ := physical.SortRel(b, "A", sortx.Radix, 1, nil)
	if !as.MustColumn("A").Equal(bs.MustColumn("A")) ||
		!as.MustColumn("count_star").Equal(bs.MustColumn("count_star")) {
		t.Fatal("AV plan result differs from plain plan")
	}
}

func TestPrebuiltIndexJoin(t *testing.T) {
	r, _, q := fkTables(t, false, false, true)
	cat := NewCatalog()
	sph, err := MaterializeSPH("R", r, "ID")
	if err != nil {
		t.Fatal(err)
	}
	cat.Add(sph)

	plain, err := core.Optimize(q, core.DQO())
	if err != nil {
		t.Fatal(err)
	}
	withAV, err := core.Optimize(q, core.DQO().WithAVs(nil, cat))
	if err != nil {
		t.Fatal(err)
	}
	// Build phase paid offline: join cost drops from |R|+|S| to |S|.
	if withAV.Best.Cost >= plain.Best.Cost {
		t.Fatalf("index AV did not reduce cost: %g vs %g\n%s", withAV.Best.Cost, plain.Best.Cost, withAV.Best.Explain())
	}
	if !strings.Contains(withAV.Best.Explain(), "av:sph(R.ID)") {
		t.Fatalf("index AV not chosen:\n%s", withAV.Best.Explain())
	}
	a, err := core.Execute(plain.Best)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Execute(withAV.Best)
	if err != nil {
		t.Fatal(err)
	}
	as, _ := physical.SortRel(a, "A", sortx.Radix, 1, nil)
	bs, _ := physical.SortRel(b, "A", sortx.Radix, 1, nil)
	if !as.Equal(bs) {
		t.Fatal("index AV plan result differs")
	}
}

func TestHashIndexAVOnSparseKeys(t *testing.T) {
	// Sparse keys: no SPH possible, but a prebuilt hash index still pays
	// the HJ build offline.
	r, _, q := fkTables(t, false, false, false)
	cat := NewCatalog()
	h, err := MaterializeHashIndex("R", r, "ID", hashtable.Murmur3Fin)
	if err != nil {
		t.Fatal(err)
	}
	cat.Add(h)
	plain, _ := core.Optimize(q, core.DQO())
	withAV, err := core.Optimize(q, core.DQO().WithAVs(nil, cat))
	if err != nil {
		t.Fatal(err)
	}
	if withAV.Best.Cost >= plain.Best.Cost {
		t.Fatalf("hash index AV did not help on sparse keys: %g vs %g", withAV.Best.Cost, plain.Best.Cost)
	}
	out, err := core.Execute(withAV.Best)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 200 {
		t.Fatalf("%d groups, want 200", out.NumRows())
	}
}

func TestEnumerateCandidates(t *testing.T) {
	r, s, q := fkTables(t, false, false, true)
	tables := map[string]*storage.Relation{"R": r, "S": s}
	workload := []WorkloadQuery{{Name: "q1", Plan: q, Freq: 1}}
	cands, err := EnumerateCandidates(tables, workload)
	if err != nil {
		t.Fatal(err)
	}
	// Keys: R.ID (dense: 3 views), S.R_ID (hash+sorted; R_ID not dense in
	// general), R.A (group key: sorted+hash+sph since dense).
	labels := map[string]bool{}
	for _, v := range cands {
		labels[v.Label()] = true
	}
	for _, want := range []string{"av:sorted(R.ID)", "av:hashidx(R.ID)", "av:sph(R.ID)", "av:sorted(S.R_ID)", "av:sorted(R.A)"} {
		if !labels[want] {
			t.Fatalf("candidates missing %s; have %v", want, labels)
		}
	}
	if _, err := EnumerateCandidates(map[string]*storage.Relation{}, workload); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestAVSPGreedyMatchesExhaustive(t *testing.T) {
	r, s, q := fkTables(t, false, false, true)
	tables := map[string]*storage.Relation{"R": r, "S": s}
	workload := []WorkloadQuery{{Name: "paper", Plan: q, Freq: 10}}
	cands, err := EnumerateCandidates(tables, workload)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(1 << 20)
	greedy, err := SelectGreedy(cands, workload, core.DQO(), budget)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SelectExhaustive(cands, workload, core.DQO(), budget)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.TotalBytes > budget || exact.TotalBytes > budget {
		t.Fatal("budget violated")
	}
	if exact.CostWith > greedy.CostWith {
		t.Fatal("exhaustive worse than greedy: solver bug")
	}
	// On this workload the interactions are mild: greedy should match the
	// optimum's cost.
	if greedy.CostWith != exact.CostWith {
		t.Fatalf("greedy %g vs exact %g\n%s\n%s", greedy.CostWith, exact.CostWith, greedy, exact)
	}
	if greedy.Improvement() <= 1 {
		t.Fatalf("AVSP found no improvement: %v", greedy)
	}
}

func TestAVSPZeroBudget(t *testing.T) {
	r, s, q := fkTables(t, false, false, true)
	tables := map[string]*storage.Relation{"R": r, "S": s}
	workload := []WorkloadQuery{{Name: "q", Plan: q, Freq: 1}}
	cands, _ := EnumerateCandidates(tables, workload)
	sel, err := SelectGreedy(cands, workload, core.DQO(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Views) != 0 || sel.Improvement() != 1 {
		t.Fatalf("zero budget selected views: %v", sel)
	}
}

func TestRateCandidatesBenefits(t *testing.T) {
	r, s, q := fkTables(t, false, false, false) // sparse: hash index helps
	tables := map[string]*storage.Relation{"R": r, "S": s}
	workload := []WorkloadQuery{{Name: "q", Plan: q, Freq: 2}}
	cands, _ := EnumerateCandidates(tables, workload)
	rated, err := RateCandidates(cands, workload, core.DQO())
	if err != nil {
		t.Fatal(err)
	}
	anyPositive := false
	for _, c := range rated {
		if c.Benefit > 0 {
			anyPositive = true
		}
		if c.Benefit < 0 {
			t.Fatalf("%s has negative benefit %g (adding a view can never hurt the optimum)", c.View.Label(), c.Benefit)
		}
	}
	if !anyPositive {
		t.Fatal("no candidate helps a workload that should benefit")
	}
}

func TestPlanCache(t *testing.T) {
	_, _, q := fkTables(t, true, true, true)
	pc := NewPlanCache()
	r1, hit, err := pc.OptimizeTemplate("q1/dqo", q, core.DQO())
	if err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v", hit, err)
	}
	// A statement without filters rebinds to the cached plan as it is.
	r2, hit, err := pc.OptimizeTemplate("q1/dqo", q, core.DQO())
	if err != nil || !hit {
		t.Fatalf("second call: hit=%v err=%v", hit, err)
	}
	if r1.Best != r2.Best || r2.Stats.Alternatives != 0 {
		t.Fatalf("cache hit planned again: %d alternatives", r2.Stats.Alternatives)
	}
	if h, m := pc.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d/%d", h, m)
	}
	pc.Clear()
	if _, hit, _ := pc.OptimizeTemplate("q1/dqo", q, core.DQO()); hit {
		t.Fatal("cleared entry served")
	}
}

func TestCatalogString(t *testing.T) {
	c := NewCatalog()
	if !strings.Contains(c.String(), "empty") {
		t.Fatal("empty catalog rendering wrong")
	}
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{0, 1}))
	v, _ := MaterializeSPH("t", rel, "k")
	c.Add(v)
	if !strings.Contains(c.String(), "av:sph(t.k)") {
		t.Fatalf("catalog rendering missing view: %s", c)
	}
}

func TestCatalogDropTable(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{0, 1}))
	other := storage.MustNewRelation("u", storage.NewUint32("k", []uint32{0, 1}))
	c := NewCatalog()
	v1, _ := MaterializeSPH("t", rel, "k")
	v2, _ := MaterializeHashIndex("t", rel, "k", 0)
	v3, _ := MaterializeSPH("u", other, "k")
	c.Add(v1)
	c.Add(v2)
	c.Add(v3)
	if n := c.DropTable("t"); n != 2 {
		t.Fatalf("dropped %d views, want 2", n)
	}
	if len(c.Views()) != 1 || c.Views()[0].Table != "u" {
		t.Fatalf("remaining views wrong: %v", c.Views())
	}
	if n := c.DropTable("t"); n != 0 {
		t.Fatalf("second drop removed %d", n)
	}
}

func TestMaterializeCracked(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{9, 2, 7, 2, 5}))
	v, err := MaterializeCracked("t", rel, "k")
	if err != nil {
		t.Fatal(err)
	}
	if v.Label() != "av:crack(t.k)" {
		t.Fatalf("label %q", v.Label())
	}
	ids := v.Range64(2, 6)
	if len(ids) != 3 { // values 2, 2, 5
		t.Fatalf("Range64 = %v", ids)
	}
	if v.Pieces() < 2 {
		t.Fatal("cracking did not partition")
	}
	if _, err := MaterializeCracked("t", storage.MustNewRelation("t", storage.NewFloat64("f", []float64{1})), "f"); err == nil {
		t.Fatal("cracked AV over float accepted")
	}
}

func TestCrackedAVInPlans(t *testing.T) {
	// Range filter over a base scan: with the cracked AV installed the
	// optimiser should route the filter through it, results unchanged, and
	// the index should refine across queries.
	rel := storage.MustNewRelation("T",
		storage.NewUint32("k", datagenKeys(40000, 1000)),
		storage.NewInt64("v", make([]int64, 40000)),
	)
	node := &logical.GroupBy{
		Input: &logical.Filter{
			Input: &logical.Scan{Table: "T", Rel: rel},
			Pred: expr.Bin{Op: expr.OpAnd,
				L: expr.Bin{Op: expr.OpGe, L: expr.Col{Name: "k"}, R: expr.IntLit{V: 100}},
				R: expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "k"}, R: expr.IntLit{V: 200}},
			},
		},
		Key:  "k",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}},
	}
	plain, err := core.Optimize(node, core.DQO())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Execute(plain.Best)
	if err != nil {
		t.Fatal(err)
	}

	cat := NewCatalog()
	cv, err := MaterializeCracked("T", rel, "k")
	if err != nil {
		t.Fatal(err)
	}
	cat.Add(cv)
	mode := core.DQO().WithCracked(cat)
	withAV, err := core.Optimize(node, mode)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(withAV.Best.Explain(), "av:crack(T.k)") {
		t.Fatalf("cracked AV not chosen:\n%s", withAV.Best.Explain())
	}
	if withAV.Best.Cost >= plain.Best.Cost {
		t.Fatalf("cracked AV did not reduce estimated cost: %g vs %g", withAV.Best.Cost, plain.Best.Cost)
	}
	got, err := core.Execute(withAV.Best)
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := physical.SortRel(want, "k", sortx.Radix, 1, nil)
	gs, _ := physical.SortRel(got, "k", sortx.Radix, 1, nil)
	if !ws.MustColumn("k").Equal(gs.MustColumn("k")) ||
		!ws.MustColumn("count_star").Equal(gs.MustColumn("count_star")) {
		t.Fatal("cracked plan result differs")
	}
	pieces := cv.Pieces()
	if pieces < 2 {
		t.Fatal("execution did not crack the index")
	}
	// A second, different range refines further.
	node.Input.(*logical.Filter).Pred = expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "k"}, R: expr.IntLit{V: 50}}
	res2, err := core.Optimize(node, mode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Execute(res2.Best); err != nil {
		t.Fatal(err)
	}
	if cv.Pieces() <= pieces {
		t.Fatal("index did not refine across queries")
	}
}

// datagenKeys builds n unsorted keys over [0, domain).
func datagenKeys(n, domain int) []uint32 {
	keys := datagen.GroupingKeys(77, n, domain, datagen.Quadrant{Sorted: false, Dense: true})
	return keys
}
