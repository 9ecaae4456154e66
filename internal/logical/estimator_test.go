package logical

import (
	"testing"

	"dqo/internal/expr"
)

// collectNodes gathers every node of a tree in pre-order.
func collectNodes(n Node, out *[]Node) {
	*out = append(*out, n)
	for _, c := range n.Children() {
		collectNodes(c, out)
	}
}

// TestEstimatorMatchesPackageFunctions: the memoising Estimator is a pure
// cache — at every node of a tree it must return exactly the values the
// stateless package-level Estimate/ColDistinct compute, and repeated calls
// on the same instance must stay stable. One made by NewEstimatorFor, which
// looks columns up in what validation derived, answers the same.
func TestEstimatorMatchesPackageFunctions(t *testing.T) {
	for _, c := range []struct{ rSorted, sSorted, dense bool }{
		{true, true, true}, {true, false, true}, {false, false, false},
	} {
		gb, _, _ := paperPlan(t, c.rSorted, c.sSorted, c.dense)
		tree := &Sort{
			Input: &Filter{
				Input: gb,
				Pred:  expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "A"}, R: expr.IntLit{V: 120}},
			},
			Key: "A",
		}
		var nodes []Node
		collectNodes(tree, &nodes)
		validated, err := NewEstimatorFor(tree)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*Estimator{NewEstimator(), validated} {
			checkEstimator(t, e, nodes, c)
		}
	}
	if _, err := NewEstimatorFor(&Sort{Input: &Scan{Table: "R"}, Key: "A"}); err == nil {
		t.Fatal("NewEstimatorFor accepted a scan with no relation")
	}
}

// checkEstimator compares e with the package functions at every node.
func checkEstimator(t *testing.T, e *Estimator, nodes []Node, c any) {
	t.Helper()
	for _, n := range nodes {
		want := Estimate(n)
		if got := e.Estimate(n); got != want {
			t.Errorf("%+v: Estimator.Estimate(%s) = %g, package Estimate = %g", c, n, got, want)
		}
		if got := e.Estimate(n); got != want {
			t.Errorf("%+v: repeated Estimator.Estimate(%s) drifted to %g", c, n, got)
		}
		for _, col := range n.Columns() {
			wantD := ColDistinct(n, col)
			if gotD := e.ColDistinct(n, col); gotD != wantD {
				t.Errorf("%+v: Estimator.ColDistinct(%s, %s) = %g, package = %g",
					c, n, col, gotD, wantD)
			}
		}
	}
}
