package logical

import (
	"dqo/internal/props"
	"strings"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/storage"
)

func paperPlan(t *testing.T, rSorted, sSorted, dense bool) (*GroupBy, *storage.Relation, *storage.Relation) {
	t.Helper()
	cfg := datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200, RSorted: rSorted, SSorted: sSorted, Dense: dense}
	r, s := datagen.FKPair(1, cfg)
	join := &Join{
		Left:    &Scan{Table: "R", Rel: r},
		Right:   &Scan{Table: "S", Rel: s},
		LeftKey: "ID", RightKey: "R_ID",
	}
	gb := &GroupBy{Input: join, Key: "A", Aggs: []expr.AggSpec{{Func: expr.AggCount}}}
	return gb, r, s
}

func TestValidateAcceptsPaperQuery(t *testing.T) {
	gb, _, _ := paperPlan(t, true, true, true)
	if err := Validate(gb); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadColumns(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{1}))
	scan := &Scan{Table: "t", Rel: rel}
	cases := []Node{
		&Filter{Input: scan, Pred: expr.Col{Name: "zz"}},
		&Project{Input: scan, Cols: []string{"zz"}},
		&Join{Left: scan, Right: scan, LeftKey: "zz", RightKey: "k"},
		&Join{Left: scan, Right: scan, LeftKey: "k", RightKey: "zz"},
		&GroupBy{Input: scan, Key: "zz"},
		&GroupBy{Input: scan, Key: "k", Aggs: []expr.AggSpec{{Func: expr.AggSum, Col: "zz"}}},
		&GroupBy{Input: scan, Key: "k", Aggs: []expr.AggSpec{{Func: expr.AggSum}}},
		&Sort{Input: scan, Key: "zz"},
		&Scan{Table: "unbound"},
	}
	for _, n := range cases {
		if err := Validate(n); err == nil {
			t.Errorf("%s: accepted", n)
		}
	}
}

func TestJoinColumnsRenameClashes(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{1}), storage.NewInt64("v", []int64{1}))
	j := &Join{Left: &Scan{Table: "a", Rel: rel}, Right: &Scan{Table: "b", Rel: rel}, LeftKey: "k", RightKey: "k"}
	cols := strings.Join(j.Columns(), ",")
	if cols != "k,v,k_r,v_r" {
		t.Fatalf("join columns = %s", cols)
	}
}

func TestGroupByColumns(t *testing.T) {
	gb, _, _ := paperPlan(t, true, true, true)
	cols := gb.Columns()
	if len(cols) != 2 || cols[0] != "A" || cols[1] != "count_star" {
		t.Fatalf("columns = %v", cols)
	}
}

func TestEstimateFKJoin(t *testing.T) {
	gb, r, s := paperPlan(t, true, true, true)
	join := gb.Input.(*Join)
	// FK join: |R join S| = |R|*|S| / max(d(ID), d(R_ID)) = |S| since ID unique.
	est := Estimate(join)
	if est != float64(s.NumRows()) {
		t.Fatalf("join estimate %g, want %d", est, s.NumRows())
	}
	if Estimate(gb) != 200 {
		t.Fatalf("group estimate %g, want 200", Estimate(gb))
	}
	if Estimate(&Scan{Table: "R", Rel: r}) != float64(r.NumRows()) {
		t.Fatal("scan estimate wrong")
	}
}

func TestEstimateFilter(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}))
	scan := &Scan{Table: "t", Rel: rel}
	eq := &Filter{Input: scan, Pred: expr.Bin{Op: expr.OpEq, L: expr.Col{Name: "k"}, R: expr.IntLit{V: 3}}}
	if got := Estimate(eq); got != 1 {
		t.Fatalf("equality estimate %g, want 1 (1/distinct)", got)
	}
	rng := &Filter{Input: scan, Pred: expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "k"}, R: expr.IntLit{V: 3}}}
	if got := Estimate(rng); got < 3 || got > 4 {
		t.Fatalf("range estimate %g, want ~10/3", got)
	}
}

func TestEstimateSortAndProject(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{1, 2, 3}))
	scan := &Scan{Table: "t", Rel: rel}
	if Estimate(&Sort{Input: scan, Key: "k"}) != 3 {
		t.Fatal("sort estimate wrong")
	}
	if Estimate(&Project{Input: scan, Cols: []string{"k"}}) != 3 {
		t.Fatal("project estimate wrong")
	}
}

func TestColDistinctThroughJoin(t *testing.T) {
	gb, _, _ := paperPlan(t, true, true, true)
	join := gb.Input.(*Join)
	if d := ColDistinct(join, "A"); d != 200 {
		t.Fatalf("distinct(A) through join = %g, want 200", d)
	}
	if d := ColDistinct(join, "ID"); d != 2000 {
		t.Fatalf("distinct(ID) through join = %g, want 2000", d)
	}
}

// scanProps numbers rel's columns in a deep table and returns its scan
// property set with the ordinal of a name, as a planner derives them.
func scanProps(t *testing.T, rel *storage.Relation) (props.Set, func(string) props.Col) {
	tab := props.NewTable([]*storage.Relation{rel}, nil, true)
	return tab.Scan(rel), func(name string) props.Col {
		c, ok := tab.Col(name)
		if !ok {
			t.Fatalf("no column %s", name)
		}
		return c
	}
}

func TestScanPropsFromStats(t *testing.T) {
	_, r, s := paperPlan(t, true, false, true)
	rp, c := scanProps(t, r)
	if !rp.SortedOn(c("ID")) || !rp.SortedOn(c("A")) {
		t.Fatalf("sorted R props wrong: %s", rp)
	}
	if !rp.DenseOn(c("ID")) || !rp.DenseOn(c("A")) {
		t.Fatal("dense domains missing")
	}
	if !rp.Dependents(c("ID")).Has(c("A")) {
		t.Fatal("declared correlation missing from scan props")
	}
	sp, c := scanProps(t, s)
	if sp.SortedOn(c("R_ID")) {
		t.Fatal("unsorted S claimed sorted")
	}
	// M is an int64 payload: has a domain entry but no order claims.
	if sp.SortedOn(c("M")) || !sp.Domain(c("M")).Known {
		t.Fatal("unsorted M claimed sorted, or lost its domain")
	}
}

func TestScanPropsUnsortedSparse(t *testing.T) {
	_, r, _ := paperPlan(t, false, false, false)
	rp, c := scanProps(t, r)
	if rp.SortedOn(c("ID")) {
		t.Fatal("unsorted R claimed sorted")
	}
	if rp.DenseOn(c("ID")) {
		t.Fatal("sparse ID claimed dense")
	}
	if rp.DenseOn(c("A")) {
		t.Fatal("the density knob covers the grouping key too (Figure 5 sparse column)")
	}
}

func TestScanPropsStringColumn(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewString("s", []string{"a", "b", "a"}))
	p, c := scanProps(t, rel)
	if !p.DenseOn(c("s")) {
		t.Fatal("dict codes should be dense")
	}
}

func TestFormat(t *testing.T) {
	gb, _, _ := paperPlan(t, true, true, true)
	got := Format(gb)
	for _, want := range []string{"GroupBy(A; COUNT(*))", "Join(ID = R_ID)", "Scan(R)", "Scan(S)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("Format output missing %q:\n%s", want, got)
		}
	}
	// Indentation: scans are two levels deep.
	if !strings.Contains(got, "    Scan(R)") {
		t.Fatalf("Format indentation wrong:\n%s", got)
	}
}

func TestNodeStringsAndChildren(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{1, 2}))
	scan := &Scan{Table: "t", Rel: rel}
	f := &Filter{Input: scan, Pred: expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "k"}, R: expr.IntLit{V: 2}}}
	p := &Project{Input: f, Cols: []string{"k"}}
	s := &Sort{Input: p, Key: "k"}
	if f.String() != "Filter((k < 2))" {
		t.Fatalf("filter string = %q", f.String())
	}
	if p.String() != "Project(k)" {
		t.Fatalf("project string = %q", p.String())
	}
	if s.String() != "Sort(k)" {
		t.Fatalf("sort string = %q", s.String())
	}
	if len(f.Children()) != 1 || len(p.Children()) != 1 || len(s.Children()) != 1 {
		t.Fatal("children wrong")
	}
	if len(f.Columns()) != 1 || len(p.Columns()) != 1 || len(s.Columns()) != 1 {
		t.Fatal("columns wrong")
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestColDistinctFallbacks(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{1, 2, 3, 4}))
	scan := &Scan{Table: "t", Rel: rel}
	if d := ColDistinct(scan, "missing"); d != 0 {
		t.Fatalf("distinct of missing column = %g", d)
	}
	// Filter caps distinct at estimated rows.
	f := &Filter{Input: scan, Pred: expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "k"}, R: expr.IntLit{V: 2}}}
	if d := ColDistinct(f, "k"); d > Estimate(f) {
		t.Fatalf("filtered distinct %g exceeds row estimate %g", d, Estimate(f))
	}
	// Sort and project pass through.
	if d := ColDistinct(&Sort{Input: scan, Key: "k"}, "k"); d != 4 {
		t.Fatalf("distinct through sort = %g", d)
	}
	if d := ColDistinct(&Project{Input: scan, Cols: []string{"k"}}, "k"); d != 4 {
		t.Fatalf("distinct through project = %g", d)
	}
	// GroupBy: everything bounded by group count.
	gb := &GroupBy{Input: scan, Key: "k"}
	if d := ColDistinct(gb, "k"); d != 4 {
		t.Fatalf("distinct of group key = %g", d)
	}
	// Inexact stats yield 0.
	c := rel.MustColumn("k")
	c.SetStats(storage.Stats{Rows: 4, Distinct: 4, Exact: false})
	if d := ColDistinct(scan, "k"); d != 0 {
		t.Fatalf("inexact stats should yield 0, got %g", d)
	}
	c.ResetStats()
}

func TestColDistinctRightSideOfJoin(t *testing.T) {
	// A clashing right column is addressed with the _r suffix.
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{1, 2}))
	j := &Join{Left: &Scan{Table: "a", Rel: rel}, Right: &Scan{Table: "b", Rel: rel}, LeftKey: "k", RightKey: "k"}
	if d := ColDistinct(j, "k_r"); d <= 0 {
		t.Fatalf("distinct of suffixed right column = %g", d)
	}
}

func TestEstimateJoinWithoutStats(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{1, 2}))
	rel.MustColumn("k").SetStats(storage.Stats{Rows: 2, Exact: false})
	j := &Join{Left: &Scan{Table: "a", Rel: rel}, Right: &Scan{Table: "b", Rel: rel}, LeftKey: "k", RightKey: "k"}
	// No distinct info: falls back to cross-product estimate.
	if got := Estimate(j); got != 4 {
		t.Fatalf("estimate = %g, want 4 (cross product fallback)", got)
	}
	rel.MustColumn("k").ResetStats()
}
