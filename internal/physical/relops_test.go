package physical

import (
	"context"
	"strings"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

func TestFilterRel(t *testing.T) {
	rel := storage.MustNewRelation("t",
		storage.NewUint32("k", []uint32{1, 2, 3, 4}),
		storage.NewInt64("v", []int64{10, 20, 30, 40}),
	)
	out, err := FilterRel(rel, expr.Bin{Op: expr.OpGe, L: expr.Col{Name: "v"}, R: expr.IntLit{V: 25}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.MustColumn("k").Uint32s()[0] != 3 {
		t.Fatalf("filter wrong: %s", out)
	}
	if _, err := FilterRel(rel, expr.Col{Name: "nope"}, nil, nil); err == nil {
		t.Fatal("filter on bad predicate accepted")
	}
}

func TestSortRel(t *testing.T) {
	rel := storage.MustNewRelation("t",
		storage.NewUint32("k", []uint32{3, 1, 2, 1}),
		storage.NewInt64("v", []int64{30, 10, 20, 11}),
	)
	for _, sk := range sortx.Kinds() {
		out, err := SortRel(rel, "k", sk, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", sk, err)
		}
		k := out.MustColumn("k").Uint32s()
		v := out.MustColumn("v").Int64s()
		wantK := []uint32{1, 1, 2, 3}
		wantV := []int64{10, 11, 20, 30} // stable: first 1 keeps v=10
		for i := range wantK {
			if k[i] != wantK[i] || v[i] != wantV[i] {
				t.Fatalf("%s: got %v/%v, want %v/%v", sk, k, v, wantK, wantV)
			}
		}
		if !out.MustColumn("k").Stats().Sorted {
			t.Fatalf("%s: output stats not sorted", sk)
		}
	}
	if _, err := SortRel(rel, "missing", sortx.Radix, 1, nil); err == nil {
		t.Fatal("sort by missing column accepted")
	}
	if _, err := SortRel(storage.MustNewRelation("t", storage.NewFloat64("f", []float64{1})), "f", sortx.Radix, 1, nil); err == nil {
		t.Fatal("sort by float column accepted as key")
	}
}

// TestSortRelLeavesStatsLazy: the sort asserts its postcondition with a
// linear check, so the output's statistics are only computed if asked for.
func TestSortRelLeavesStatsLazy(t *testing.T) {
	r, _ := datagen.FKPair(3, datagen.FKConfig{RRows: 5000, SRows: 10, AGroups: 50})
	before := storage.StatsComputations()
	out, err := SortRel(r, "A", sortx.Radix, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := storage.StatsComputations() - before; n != 0 {
		t.Fatalf("SortRel computed statistics %d times", n)
	}
	if st := out.MustColumn("A").Stats(); !st.Sorted || st.Distinct != 50 {
		t.Fatalf("lazy output stats wrong: %+v", st)
	}
}

// BenchmarkSortRelPostcondition prices SortRel end to end; the sortedness
// postcondition is part of every call, so its cost (and, before it became a
// linear check, its distinct-count map) shows in ns/op and allocs/op. The
// sorted case is an ORDER BY over input some granule already ordered: one
// linear pass and no allocation.
func BenchmarkSortRelPostcondition(b *testing.B) {
	_, s := datagen.FKPair(11, datagen.FKConfig{RRows: 20000, SRows: 100000, AGroups: 200})
	sorted, err := SortRel(s, "R_ID", sortx.Radix, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rel  *storage.Relation
	}{{"unsorted", s}, {"sorted", sorted}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SortRel(c.rel, "R_ID", sortx.Radix, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSortRelReturnsSortedInput: input already in key order comes back as it
// is, serial or parallel, with nothing charged to the budget.
func TestSortRelReturnsSortedInput(t *testing.T) {
	rel := storage.MustNewRelation("t",
		storage.NewUint32("k", []uint32{1, 1, 2, 5}),
		storage.NewInt64("v", []int64{11, 10, 20, 30}),
	)
	for _, workers := range []int{1, 4} {
		mem := govern.NewBudget(0)
		out, err := SortRel(rel, "k", sortx.Radix, workers, &govern.Ctl{Ctx: context.Background(), Mem: mem})
		if err != nil {
			t.Fatal(err)
		}
		if out != rel {
			t.Fatalf("workers=%d: sorted input was copied", workers)
		}
		if mem.Peak() != 0 {
			t.Fatalf("workers=%d: %d bytes charged for a sort that moved nothing", workers, mem.Peak())
		}
	}
}

func TestGroupByRelBasic(t *testing.T) {
	rel := storage.MustNewRelation("t",
		storage.NewUint32("g", []uint32{0, 1, 0, 1, 0}),
		storage.NewInt64("v", []int64{5, 7, 3, 1, 2}),
	)
	out, err := GroupByRel(rel, "g", []expr.AggSpec{
		{Func: expr.AggCount},
		{Func: expr.AggSum, Col: "v", As: "total"},
		{Func: expr.AggMin, Col: "v"},
		{Func: expr.AggMax, Col: "v"},
		{Func: expr.AggAvg, Col: "v"},
	}, SPHG, GroupOptions{}, props.Domain{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("%d groups, want 2", out.NumRows())
	}
	g := out.MustColumn("g").Uint32s()
	if g[0] != 0 || g[1] != 1 {
		t.Fatalf("keys %v", g)
	}
	if c := out.MustColumn("count_star").Int64s(); c[0] != 3 || c[1] != 2 {
		t.Fatalf("counts %v", c)
	}
	if s := out.MustColumn("total").Int64s(); s[0] != 10 || s[1] != 8 {
		t.Fatalf("sums %v", s)
	}
	if m := out.MustColumn("min_v").Int64s(); m[0] != 2 || m[1] != 1 {
		t.Fatalf("mins %v", m)
	}
	if m := out.MustColumn("max_v").Int64s(); m[0] != 5 || m[1] != 7 {
		t.Fatalf("maxs %v", m)
	}
	if a := out.MustColumn("avg_v").Float64s(); a[0] != 10.0/3 || a[1] != 4 {
		t.Fatalf("avgs %v", a)
	}
	st := out.MustColumn("g").Stats()
	if !st.Sorted || !st.Dense || st.Distinct != 2 {
		t.Fatalf("output key stats wrong: %+v", st)
	}
}

func TestGroupByRelAllKindsAgree(t *testing.T) {
	rel := datagen.GroupingRelation(11, 20000, 64, datagen.Quadrant{Sorted: true, Dense: true})
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}
	var ref *storage.Relation
	for _, k := range GroupKinds() {
		out, err := GroupByRel(rel, "key", aggs, k, GroupOptions{}, props.Domain{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		// All kinds produce sorted output here (input sorted), so rows align.
		if ref == nil {
			ref = out
			continue
		}
		if !ref.MustColumn("key").Equal(out.MustColumn("key")) ||
			!ref.MustColumn("count_star").Equal(out.MustColumn("count_star")) ||
			!ref.MustColumn("sum_val").Equal(out.MustColumn("sum_val")) {
			t.Fatalf("%s disagrees with reference", k)
		}
	}
}

func TestGroupByRelStringKeys(t *testing.T) {
	rel := storage.MustNewRelation("t",
		storage.NewString("city", []string{"ba", "sb", "ba", "hh", "sb", "ba"}),
		storage.NewInt64("pop", []int64{1, 2, 3, 4, 5, 6}),
	)
	out, err := GroupByRel(rel, "city", []expr.AggSpec{{Func: expr.AggSum, Col: "pop"}}, SPHG, GroupOptions{}, props.Domain{})
	if err != nil {
		t.Fatal(err) // dict codes are dense: SPHG must apply
	}
	if out.NumRows() != 3 {
		t.Fatalf("%d groups, want 3", out.NumRows())
	}
	got := map[string]int64{}
	sums := out.MustColumn("sum_pop").Int64s()
	for i := 0; i < out.NumRows(); i++ {
		got[out.MustColumn("city").ValueAt(i).S] = sums[i]
	}
	want := map[string]int64{"ba": 10, "sb": 7, "hh": 4}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("city %q = %d, want %d", k, got[k], w)
		}
	}
}

func TestGroupByRelErrors(t *testing.T) {
	rel := storage.MustNewRelation("t",
		storage.NewUint32("g", []uint32{1}),
		storage.NewFloat64("f", []float64{1.5}),
	)
	if _, err := GroupByRel(rel, "missing", nil, HG, GroupOptions{}, props.Domain{}); err == nil {
		t.Fatal("missing key column accepted")
	}
	if _, err := GroupByRel(rel, "g", []expr.AggSpec{{Func: expr.AggSum, Col: "f"}}, HG, GroupOptions{}, props.Domain{}); err == nil {
		t.Fatal("float aggregate argument accepted")
	}
	if _, err := GroupByRel(rel, "g", []expr.AggSpec{{Func: expr.AggSum, Col: "missing"}}, HG, GroupOptions{}, props.Domain{}); err == nil {
		t.Fatal("missing aggregate argument accepted")
	}
	if _, err := GroupByRel(rel, "g", []expr.AggSpec{{Func: expr.AggSum}}, HG, GroupOptions{}, props.Domain{}); err == nil {
		t.Fatal("SUM without argument accepted")
	}
	if _, err := GroupByRel(rel, "f", nil, HG, GroupOptions{}, props.Domain{}); err == nil {
		t.Fatal("float grouping key accepted")
	}
}

func TestGroupByRelNoAggs(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("g", []uint32{2, 0, 2, 1}))
	out, err := GroupByRel(rel, "g", nil, SOG, GroupOptions{}, props.Domain{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 || out.NumCols() != 1 {
		t.Fatalf("distinct grouping wrong: %s", out)
	}
}

func TestJoinRelBasic(t *testing.T) {
	r := storage.MustNewRelation("R",
		storage.NewUint32("ID", []uint32{0, 1, 2}),
		storage.NewUint32("A", []uint32{10, 11, 12}),
	)
	s := storage.MustNewRelation("S",
		storage.NewUint32("R_ID", []uint32{1, 1, 2, 5}),
		storage.NewInt64("M", []int64{100, 200, 300, 400}),
	)
	for _, k := range []JoinKind{HJ, SPHJ, SOJ, BSJ} {
		out, err := JoinRel(r, s, "ID", "R_ID", k, JoinOptions{}, props.Domain{}, false, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if out.NumRows() != 3 {
			t.Fatalf("%s: %d rows, want 3", k, out.NumRows())
		}
		// Every output row: A == ID+10 and R_ID == ID.
		ids := out.MustColumn("ID").Uint32s()
		as := out.MustColumn("A").Uint32s()
		rids := out.MustColumn("R_ID").Uint32s()
		for i := range ids {
			if as[i] != ids[i]+10 || rids[i] != ids[i] {
				t.Fatalf("%s: row %d inconsistent: ID=%d A=%d R_ID=%d", k, i, ids[i], as[i], rids[i])
			}
		}
	}
}

func TestJoinRelColumnClash(t *testing.T) {
	r := storage.MustNewRelation("R",
		storage.NewUint32("ID", []uint32{0, 1}),
		storage.NewInt64("x", []int64{1, 2}),
	)
	s := storage.MustNewRelation("S",
		storage.NewUint32("ID", []uint32{0, 1}),
		storage.NewInt64("x", []int64{10, 20}),
	)
	out, err := JoinRel(r, s, "ID", "ID", HJ, JoinOptions{}, props.Domain{}, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Column("ID_r"); !ok {
		t.Fatalf("clashing right column not renamed: %v", out.ColumnNames())
	}
	if _, ok := out.Column("x_r"); !ok {
		t.Fatalf("clashing right column not renamed: %v", out.ColumnNames())
	}
	l := out.MustColumn("x").Int64s()
	rr := out.MustColumn("x_r").Int64s()
	for i := range l {
		if rr[i] != l[i]*10 {
			t.Fatalf("row %d: sides misaligned: %d vs %d", i, l[i], rr[i])
		}
	}
}

func TestJoinRelErrors(t *testing.T) {
	r := storage.MustNewRelation("R", storage.NewUint32("ID", []uint32{0}))
	s := storage.MustNewRelation("S", storage.NewUint32("R_ID", []uint32{0}))
	if _, err := JoinRel(r, s, "missing", "R_ID", HJ, JoinOptions{}, props.Domain{}, false, nil, nil); err == nil {
		t.Fatal("missing left key accepted")
	}
	if _, err := JoinRel(r, s, "ID", "missing", HJ, JoinOptions{}, props.Domain{}, false, nil, nil); err == nil {
		t.Fatal("missing right key accepted")
	}
	sparse := storage.MustNewRelation("R", storage.NewUint32("ID", []uint32{0, 5}))
	if _, err := JoinRel(sparse, s, "ID", "R_ID", SPHJ, JoinOptions{}, props.Domain{}, false, nil, nil); err == nil {
		t.Fatal("SPHJ over sparse keys accepted")
	}
}

func TestEndToEndPaperQuery(t *testing.T) {
	// SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A
	// executed with two different algorithm stacks must agree.
	cfg := datagen.FKConfig{RRows: 1000, SRows: 5000, AGroups: 100, RSorted: false, SSorted: false, Dense: true}
	r, s := datagen.FKPair(21, cfg)

	run := func(jk JoinKind, gk GroupKind) *storage.Relation {
		j, err := JoinRel(r, s, "ID", "R_ID", jk, JoinOptions{}, props.Domain{}, false, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", jk, err)
		}
		// A's domain stats are lost after the join (gathered column);
		// recompute so SPHG can run.
		j.MustColumn("A").ResetStats()
		out, err := GroupByRel(j, "A", []expr.AggSpec{{Func: expr.AggCount}}, gk, GroupOptions{}, props.Domain{})
		if err != nil {
			t.Fatalf("%s/%s: %v", jk, gk, err)
		}
		sorted, err := SortRel(out, "A", sortx.Radix, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sorted
	}

	a := run(HJ, HG)
	b := run(SPHJ, SPHG)
	c := run(SOJ, SOG)
	if !a.MustColumn("A").Equal(b.MustColumn("A")) || !a.MustColumn("count_star").Equal(b.MustColumn("count_star")) {
		t.Fatal("HJ+HG and SPHJ+SPHG disagree")
	}
	if !a.MustColumn("A").Equal(c.MustColumn("A")) || !a.MustColumn("count_star").Equal(c.MustColumn("count_star")) {
		t.Fatal("HJ+HG and SOJ+SOG disagree")
	}
	// COUNT over all groups must equal |S| (FK join).
	total := int64(0)
	for _, v := range a.MustColumn("count_star").Int64s() {
		total += v
	}
	if total != int64(cfg.SRows) {
		t.Fatalf("total count %d, want %d", total, cfg.SRows)
	}
}

func TestGroupByRelBundleMatchesOperator(t *testing.T) {
	rel := datagen.GroupingRelation(31, 30000, 128, datagen.Quadrant{Sorted: false, Dense: true})
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}
	ref, err := GroupByRel(rel, "key", aggs, SPHG, GroupOptions{}, props.Domain{})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []PartitionStrategy{PartitionBySPH, PartitionByHash} {
		for _, parallel := range []int{1, 4} {
			out, err := GroupByRelBundle(rel, "key", aggs, strat, hashtable.Murmur3Fin, parallel, props.Domain{})
			if err != nil {
				t.Fatalf("%s/p=%d: %v", strat, parallel, err)
			}
			sorted, err := SortRel(out, "key", sortx.Radix, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.MustColumn("key").Equal(sorted.MustColumn("key")) ||
				!ref.MustColumn("count_star").Equal(sorted.MustColumn("count_star")) ||
				!ref.MustColumn("sum_val").Equal(sorted.MustColumn("sum_val")) {
				t.Fatalf("%s/p=%d: bundle engine disagrees with operator", strat, parallel)
			}
		}
	}
}

func TestGroupByRelBundleRunsOnGroupedInput(t *testing.T) {
	rel := datagen.GroupingRelation(32, 10000, 64, datagen.Quadrant{Sorted: true, Dense: false})
	out, err := GroupByRelBundle(rel, "key", []expr.AggSpec{{Func: expr.AggCount}}, PartitionByRuns, 0, 1, props.Domain{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 64 {
		t.Fatalf("%d groups", out.NumRows())
	}
	// Runs strategy on ungrouped input is rejected.
	bad := datagen.GroupingRelation(32, 10000, 64, datagen.Quadrant{Sorted: false, Dense: false})
	if _, err := GroupByRelBundle(bad, "key", nil, PartitionByRuns, 0, 1, props.Domain{}); err == nil {
		t.Fatal("runs strategy accepted ungrouped input")
	}
}

// TestGroupByRelKernelRuns: the grouping kernel runs once per statement,
// over the distinct aggregate argument columns in the order they first appear
// (they share one key resolution; before the kernels kept state by need it
// ran once per column), each with exactly the aggregates asked of it —
// COUNT reads the row count and names no argument — and what it assembles
// equals the per-aggregate reference (each aggregate grouped on its own) for
// every kernel.
func TestGroupByRelKernelRuns(t *testing.T) {
	base := datagen.GroupingRelation(7, 6000, 40, datagen.Quadrant{Sorted: true, Dense: true})
	w := make([]int64, base.NumRows())
	for i := range w {
		w[i] = int64(i%17) - 8
	}
	rel := storage.MustNewRelation("t", base.MustColumn("key"), base.MustColumn("val").Rename("v"), storage.NewInt64("w", w))
	keys := rel.MustColumn("key").Uint32s()
	dom := domainOf(rel, "key")

	count := expr.AggSpec{Func: expr.AggCount}
	agg := func(f expr.AggFunc, col string) expr.AggSpec { return expr.AggSpec{Func: f, Col: col} }
	cases := []struct {
		name string
		aggs []expr.AggSpec
		args string // the one run's argument columns and needs
	}{
		{"count+sum", []expr.AggSpec{count, agg(expr.AggSum, "v")}, "v:sum"},
		{"sum+min+avg", []expr.AggSpec{agg(expr.AggSum, "v"), agg(expr.AggMin, "v"), agg(expr.AggAvg, "v")}, "v:sum+min"},
		{"sum+sum", []expr.AggSpec{agg(expr.AggSum, "v"), agg(expr.AggSum, "w")}, "v:sum w:sum"},
		{"count", []expr.AggSpec{count}, ""},
		{"count(v)", []expr.AggSpec{agg(expr.AggCount, "v")}, ""},
		{"count+max(w)+sum(v)+min(w)", []expr.AggSpec{count, agg(expr.AggMax, "w"), agg(expr.AggSum, "v"), agg(expr.AggMin, "w")}, "w:min+max v:sum"},
	}
	describe := func(args []aggArg) string {
		var parts []string
		for _, a := range args {
			name := "?"
			switch {
			case len(a.vals.i64) > 0 && &a.vals.i64[0] == &rel.MustColumn("v").Int64s()[0]:
				name = "v"
			case len(a.vals.i64) > 0 && &a.vals.i64[0] == &rel.MustColumn("w").Int64s()[0]:
				name = "w"
			}
			var needs []string
			for i, n := range []string{"sum", "min", "max"} {
				if a.need&(1<<i) != 0 {
					needs = append(needs, n)
				}
			}
			parts = append(parts, name+":"+strings.Join(needs, "+"))
		}
		return strings.Join(parts, " ")
	}
	for _, kind := range GroupKinds() {
		for _, tc := range cases {
			var ran []string
			got, err := groupAndAssemble(rel, "key", tc.aggs, nil, func(args []aggArg) (*GroupResult, error) {
				ran = append(ran, describe(args))
				return groupArgs(kind, keys, args, dom, GroupOptions{})
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, tc.name, err)
			}
			if len(ran) != 1 || ran[0] != tc.args {
				t.Fatalf("%s/%s: kernel ran over %q, want one run over %q", kind, tc.name, ran, tc.args)
			}
			if got.NumCols() != 1+len(tc.aggs) {
				t.Fatalf("%s/%s: %d output columns", kind, tc.name, got.NumCols())
			}
			for _, a := range tc.aggs {
				ref, err := GroupByRel(rel, "key", []expr.AggSpec{a}, kind, GroupOptions{}, props.Domain{})
				if err != nil {
					t.Fatal(err)
				}
				if !got.MustColumn("key").Equal(ref.MustColumn("key")) || !got.MustColumn(a.OutName()).Equal(ref.MustColumn(a.OutName())) {
					t.Fatalf("%s/%s: %s differs from the aggregate grouped on its own", kind, tc.name, a)
				}
			}
		}
	}
}
