package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/logical"
	"dqo/internal/naive"
	"dqo/internal/qerr"
	"dqo/internal/storage"
)

// fkJoin is the Section 4.3 join R ⋈ S on ID = R_ID over generated tables.
func fkJoin(seed uint64) (join *logical.Join, r, s *storage.Relation) {
	r, s = datagen.FKPair(seed, datagen.FKConfig{RRows: 300, SRows: 1300, AGroups: 30, Dense: true})
	return &logical.Join{
		Left: &logical.Scan{Table: "R", Rel: r}, Right: &logical.Scan{Table: "S", Rel: s},
		LeftKey: "ID", RightKey: "R_ID",
	}, r, s
}

// TestCompileJoinMaterialisesReferencedColumnsOnly: under GROUP BY A,
// COUNT(*) the join's ancestors reference A alone, so the join breaker holds
// its two (aliased) inputs plus one 4-byte column per output pair — not the
// 20 bytes per pair of ID, A, R_ID, M. A join the grouping reads as match
// counts (Plan.countsJoin) holds A and an 8-byte weight per R row that
// matches, instead of a column per pair. Planning is untouched: the plan's
// own width estimate still describes the logical schema.
func TestCompileJoinMaterialisesReferencedColumnsOnly(t *testing.T) {
	join, r, s := fkJoin(3)
	q := &logical.GroupBy{Input: join, Key: "A", Aggs: []expr.AggSpec{{Func: expr.AggCount}}}
	want, err := naive.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mode{SQO(), DQO(), Greedy()} {
		res, err := Optimize(q, m)
		if err != nil {
			t.Fatal(err)
		}
		got, prof, err := ExecuteContext(context.Background(), res.Best, ExecOptions{MorselSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		if err := naive.Check(got, want, "", -1); err != nil {
			t.Fatalf("%s: result differs from the naive evaluator: %v", m.Name, err)
		}
		var joinPeak int64
		var joinPlan *Plan
		res.Best.PreOrder(func(n *Plan, _ int) {
			if n.Op == OpJoin {
				joinPlan = n
			}
		})
		for _, op := range prof {
			if op.Label == joinPlan.Label() {
				joinPeak = op.PeakBytes
			}
		}
		pairs := int64(s.NumRows()) // FK join: one output row per S row
		if res.Best.countsJoin(nil) {
			ids := slices.Clone(s.MustColumn("R_ID").Uint32s())
			slices.Sort(ids)
			matched := int64(len(slices.Compact(ids)))
			if want := r.MemBytes() + s.MemBytes() + 12*matched; joinPeak != want {
				t.Fatalf("%s: counting join held %d bytes at its peak, want %d (inputs + 12 B per matching R row)", m.Name, joinPeak, want)
			}
		} else if want := r.MemBytes() + s.MemBytes() + 4*pairs; joinPeak != want {
			t.Fatalf("%s: join held %d bytes at its peak, want %d (inputs + 4 B per pair); all columns would be %d",
				m.Name, joinPeak, want, r.MemBytes()+s.MemBytes()+20*pairs)
		}
		if joinPlan.Width != 20 {
			t.Fatalf("%s: plan width estimate %v changed; pruning is a lowering detail", m.Name, joinPlan.Width)
		}
	}
}

// TestCompileFilterGathersNeededColumnsOnly: a filter keeps only what its
// ancestors read, serial and in a parallel pipe alike. Under SELECT M ... WHERE
// R_ID < 100 the filter's batches hold M (8 B per row), not R_ID and M (12 B):
// the predicate reads R_ID on the input, and the output gathers M alone.
func TestCompileFilterGathersNeededColumnsOnly(t *testing.T) {
	_, _, s := fkJoin(5)
	pred := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "R_ID"}, R: expr.IntLit{V: 100}}
	q := &logical.Project{Cols: []string{"M"}, Input: &logical.Filter{Input: &logical.Scan{Table: "S", Rel: s}, Pred: pred}}
	want, err := naive.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	const morsel = 128
	// The filter's largest batch: the most rows one morsel lets through.
	var most int64
	keys := s.MustColumn("R_ID").Uint32s()
	for lo := 0; lo < len(keys); lo += morsel {
		var n int64
		for _, k := range keys[lo:min(lo+morsel, len(keys))] {
			if k < 100 {
				n++
			}
		}
		most = max(most, n)
	}
	for _, dop := range []int{1, 2} {
		res, err := Optimize(q, DQO())
		if err != nil {
			t.Fatal(err)
		}
		var filter *Plan
		res.Best.PreOrder(func(n *Plan, _ int) {
			if n.Op == OpFilter {
				filter = n
			}
			if n.Op != OpScan {
				n.DOP = dop // a streaming chain with DOP > 1 lowers to a Pipe
			}
		})
		got, prof, err := ExecuteContext(context.Background(), res.Best, ExecOptions{MorselSize: morsel, Workers: dop})
		if err != nil {
			t.Fatal(err)
		}
		if err := naive.Check(got, want, "", -1); err != nil {
			t.Fatalf("dop=%d: result differs from the naive evaluator: %v", dop, err)
		}
		var peak int64 = -1
		for _, op := range prof {
			if op.Label == filter.Label() {
				peak = op.PeakBytes
			}
		}
		if peak != 8*most {
			t.Fatalf("dop=%d: filter's largest batch is %d bytes, want %d (M alone); with R_ID it would be %d", dop, peak, 8*most, 12*most)
		}
	}
}

// TestCompileRequiredColumnsAcrossOperators drives the required-columns pass
// through every operator that extends or replaces the set, and through the
// shapes where it must back off, comparing with the naive evaluator (schema,
// and row order where the query sorts).
func TestCompileRequiredColumnsAcrossOperators(t *testing.T) {
	join, _, _ := fkJoin(8)
	// T.K joins R.A; T.M clashes with S.M (a non-key column), T.W is payload.
	k, tm, w := make([]uint32, 30), make([]int64, 30), make([]int64, 30)
	for i := range k {
		k[i], tm[i], w[i] = uint32(i), int64(1000+i), int64(i%5)
	}
	tt := storage.MustNewRelation("T", storage.NewUint32("K", k), storage.NewInt64("M", tm), storage.NewInt64("W", w))
	three := &logical.Join{Left: join, Right: &logical.Scan{Table: "T", Rel: tt}, LeftKey: "A", RightKey: "K"}
	lt := func(col string, v int64) expr.Expr {
		return expr.Bin{Op: expr.OpLt, L: expr.Col{Name: col}, R: expr.IntLit{V: v}}
	}
	cases := []struct {
		name string
		q    logical.Node
	}{
		{"project", &logical.Project{Input: join, Cols: []string{"M", "A"}}},
		{"no project: every column", join},
		{"filter on an unprojected column",
			&logical.Project{Input: &logical.Filter{Input: join, Pred: lt("M", 50)}, Cols: []string{"A"}}},
		{"sort by an unprojected column",
			&logical.Project{Input: &logical.Sort{Input: join, Key: "R_ID"}, Cols: []string{"A", "M"}}},
		{"sorted output", &logical.Sort{Input: &logical.Project{Input: join, Cols: []string{"R_ID", "M"}}, Key: "R_ID"}},
		{"aggregate arguments", &logical.GroupBy{Input: &logical.Filter{Input: join, Pred: lt("ID", 200)}, Key: "A",
			Aggs: []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "M"}, {Func: expr.AggMax, Col: "R_ID"}}}},
		{"join above a join", &logical.GroupBy{Input: three, Key: "K",
			Aggs: []expr.AggSpec{{Func: expr.AggSum, Col: "W"}, {Func: expr.AggCount}}}},
		// M_r exists only because the inner join's M is still there when the
		// outer join names its columns: nothing below a clash is pruned.
		{"clashing names above a join", &logical.Project{Input: three, Cols: []string{"M_r", "ID"}}},
		{"clashing names, both sides", &logical.GroupBy{Input: three, Key: "A",
			Aggs: []expr.AggSpec{{Func: expr.AggSum, Col: "M"}, {Func: expr.AggSum, Col: "M_r"}}}},
	}
	for _, tc := range cases {
		want, err := naive.Execute(tc.q)
		if err != nil {
			t.Fatalf("%s: naive: %v", tc.name, err)
		}
		for _, m := range []Mode{SQO(), DQO(), DQOCalibrated(), Greedy()} {
			res, err := Optimize(tc.q, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, m.Name, err)
			}
			got, _, err := ExecuteContext(context.Background(), res.Best, ExecOptions{MorselSize: 64})
			if err != nil {
				t.Fatalf("%s/%s: %v\n%s", tc.name, m.Name, err, res.Best.Explain())
			}
			if err := naive.Check(got, want, naive.SortKey(tc.q), -1); err != nil {
				t.Fatalf("%s/%s: result differs from the naive evaluator: %v\n%s", tc.name, m.Name, err, res.Best.Explain())
			}
		}
	}
}

// TestBudgetFailureInsideAKernelNamesTheOperator: under a memory limit that
// lets a breaker drain its inputs but not run its kernel, or lets a
// compressed source decode or select but not keep the result, the query
// fails with an error naming that operator, as a failure in the drain does:
// the kernel reserves through the operator's labelled handle.
func TestBudgetFailureInsideAKernelNamesTheOperator(t *testing.T) {
	join, r, s := fkJoin(5)
	scanS := &logical.Scan{Table: "S", Rel: s}
	comp := datagen.CompressRelation("C", 42, 20000, 8, 1.1, true).Compress()
	enc, skipped, total, _, ok := encFilterTarget(comp, "key", 0, 2)
	if !ok {
		t.Fatal("the compressed table's key column is not encoded")
	}
	plainC := &Plan{Op: OpScan, Table: "C", Rel: comp}
	cases := []struct {
		name  string
		plan  *Plan
		limit int64 // what the drain holds, plus one byte
	}{
		{"sort", optimize(t, &logical.Sort{Input: scanS, Key: "R_ID"}, DQO()).Best, s.MemBytes() + 1},
		{"group", optimize(t, &logical.GroupBy{Input: scanS, Key: "R_ID", Aggs: []expr.AggSpec{{Func: expr.AggCount}}}, DQO()).Best, s.MemBytes() + 1},
		{"join", optimize(t, join, DQO()).Best, r.MemBytes() + s.MemBytes() + 1},
		{"compressed scan", &Plan{Op: OpScan, Table: "C", Rel: comp, Enc: relCompression(comp)}, 1},
		{"compressed filter", &Plan{Op: OpFilter, Children: []*Plan{plainC},
			Pred: expr.Bin{Op: expr.OpLe, L: expr.Col{Name: "key"}, R: expr.IntLit{V: 2}},
			Enc:  enc, EncCol: "key", EncLo: 0, EncHi: 2, SegsSkipped: skipped, SegsTotal: total}, 1},
	}
	for _, tc := range cases {
		_, _, err := ExecuteContext(context.Background(), tc.plan, ExecOptions{MorselSize: 64, Workers: 1, Mem: govern.NewBudget(tc.limit)})
		if !errors.Is(err, qerr.ErrMemoryBudgetExceeded) {
			t.Fatalf("%s: err = %v, want a budget failure\n%s", tc.name, err, tc.plan.Explain())
		}
		if want := "operator " + tc.plan.Label() + ": "; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %q does not name the operator (%q)", tc.name, err, want)
		}
	}
}
