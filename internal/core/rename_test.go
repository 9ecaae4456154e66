package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/naive"
	"dqo/internal/storage"
)

var updateRename = flag.Bool("update-rename", false,
	"rewrite testdata/rename.golden: only from a commit whose plans are the reference")

// renameQueries join two tables that share the column names K and X, so the
// join's output calls the right input's K_r and X_r (logical.Join.Columns).
// The shared names hold different values, domains and orders on each side:
// L is sorted on K, with X a dense domain of 10 keys correlated with K; T is
// unsorted, with X sparse over 0..294. The queries group and sort by the
// renamed columns and by their left namesakes, and join on a renamed column.
func renameQueries() []logical.Node {
	const nl, nt = 60, 400
	lk, lx, lv := make([]uint32, nl), make([]uint32, nl), make([]int64, nl)
	for i := range lk {
		lk[i], lx[i], lv[i] = uint32(i), uint32(i/6), int64(i%7)
	}
	tk, tx, tw := make([]uint32, nt), make([]uint32, nt), make([]uint32, nt)
	for i := range tk {
		tk[i], tx[i], tw[i] = uint32((i*37)%nl), uint32((i*59)%300), uint32(i%5)
	}
	l := storage.MustNewRelation("L", storage.NewUint32("K", lk), storage.NewUint32("X", lx), storage.NewInt64("V", lv))
	l.DeclareCorr("K", "X")
	tr := storage.MustNewRelation("T", storage.NewUint32("K", tk), storage.NewUint32("X", tx), storage.NewUint32("W", tw))
	dg := make([]uint32, 300)
	for i := range dg {
		dg[i] = uint32(i)
	}
	d := storage.MustNewRelation("D", storage.NewUint32("G", dg))
	join := func() logical.Node {
		return &logical.Join{
			Left: &logical.Scan{Table: "L", Rel: l},
			Right: &logical.Filter{Input: &logical.Scan{Table: "T", Rel: tr},
				Pred: expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "X"}, R: expr.IntLit{V: 250}}},
			LeftKey: "K", RightKey: "K",
		}
	}
	count := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "V"}}
	return []logical.Node{
		&logical.GroupBy{Input: join(), Key: "X_r", Aggs: count},
		&logical.GroupBy{Input: join(), Key: "X", Aggs: count},
		&logical.Sort{Input: &logical.GroupBy{Input: join(), Key: "K_r", Aggs: count}, Key: "K_r"},
		&logical.GroupBy{Input: &logical.Join{Left: join(), Right: &logical.Scan{Table: "D", Rel: d}, LeftKey: "X_r", RightKey: "G"},
			Key: "K_r", Aggs: count},
	}
}

// TestSharedNamesAcrossAJoin plans the renameQueries in every tier, checks
// each plan's answer against the naive evaluator and pins its EXPLAIN, which
// prints every node's property vector, to testdata/rename.golden: a join
// whose inputs share column names must keep each input's facts under the
// name the join's output gives them.
func TestSharedNamesAcrossAJoin(t *testing.T) {
	modes := []Mode{SQO(), DQO(), DQOCalibrated(), Greedy(), DQOCalibrated().WithBeam(2)}
	var b strings.Builder
	for qi, q := range renameQueries() {
		want, err := naive.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			mode.DOP = 1
			res, err := Optimize(q, mode)
			if err != nil {
				t.Fatalf("query %d, %s: %v", qi, mode.Name, err)
			}
			got, err := Execute(res.Best)
			if err != nil {
				t.Fatalf("query %d, %s: %v", qi, mode.Name, err)
			}
			if err := naive.Check(got, want, "", -1); err != nil {
				t.Fatalf("query %d, %s: %v\n%s", qi, mode.Name, err, res.Best.Explain())
			}
			fmt.Fprintf(&b, "query %d %s beam=%d\n%s\n", qi, mode.Name, mode.Beam, res.Best.Explain())
		}
	}
	path := filepath.Join("testdata", "rename.golden")
	if *updateRename {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(golden) {
		t.Fatalf("plans moved; got\n%s", b.String())
	}
}

// TestWideQueriesKeepTheirKeys: a query naming more columns than a column
// table numbers keeps ordinals for its key columns (a sort on the last of 70
// columns still knows its input sorted there), and one naming more key
// columns than that is refused rather than planned with keys confused.
func TestWideQueriesKeepTheirKeys(t *testing.T) {
	cols := make([]*storage.Column, 70)
	for i := range cols {
		cols[i] = storage.NewUint32(fmt.Sprintf("c%02d", i), []uint32{1, 2, 3})
	}
	rel := storage.MustNewRelation("W", cols...)
	var q logical.Node = &logical.Scan{Table: "W", Rel: rel}
	res, err := Optimize(&logical.Sort{Input: q, Key: "c69"}, DQO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Op != OpSort || res.Best.Cost != res.Best.Children[0].Cost {
		t.Fatalf("the sort of input sorted on c69 should cost nothing:\n%s", res.Best.Explain())
	}
	for i := range cols {
		q = &logical.Sort{Input: q, Key: fmt.Sprintf("c%02d", i)}
	}
	if _, err := Optimize(q, DQO()); err == nil || !strings.Contains(err.Error(), "key columns") {
		t.Fatalf("a query with 70 key columns planned: %v", err)
	}
}
