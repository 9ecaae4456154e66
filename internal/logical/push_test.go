package logical

import (
	"testing"

	"dqo/internal/expr"
)

// TestPushFiltersSharesWhatItDoesNotMove: a conjunct naming no column stays
// above the joins, the input tree is not written, an input no conjunct lands
// on comes back as the very node it was, and a tree with nothing to move is
// returned whole.
func TestPushFiltersSharesWhatItDoesNotMove(t *testing.T) {
	gb, _, _ := paperPlan(t, true, true, true)
	join := gb.Input.(*Join)
	constant := expr.Bin{Op: expr.OpEq, L: expr.IntLit{V: 1}, R: expr.IntLit{V: 1}}
	onR := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "A"}, R: expr.IntLit{V: 5}}
	where := &GroupBy{Input: &Filter{Input: join, Pred: expr.Bin{Op: expr.OpAnd, L: constant, R: onR}}, Key: "A", Aggs: gb.Aggs}
	before := Format(where)

	got := PushFilters(where)
	want := `GroupBy(A; COUNT(*))
  Filter((1 = 1))
    Join(ID = R_ID)
      Filter((A < 5))
        Scan(R)
      Scan(S)
`
	if Format(got) != want {
		t.Fatalf("PushFilters made\n%swant\n%s", Format(got), want)
	}
	if Format(where) != before {
		t.Fatalf("PushFilters rewrote its input:\n%s", Format(where))
	}
	if pushed := got.(*GroupBy).Input.(*Filter).Input.(*Join); pushed.Right != join.Right {
		t.Fatal("the scan no conjunct lands on was copied")
	}
	for _, n := range []Node{gb, &Filter{Input: join.Left, Pred: onR}} {
		if PushFilters(n) != n {
			t.Fatalf("nothing to move in\n%sbut PushFilters copied it", Format(n))
		}
	}
}
