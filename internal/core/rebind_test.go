package core

import (
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/naive"
)

// joinUnderFilter is "R JOIN S, filtered on R.A < lit, projected": one
// filter on the left arm of a join, so the right arm holds no filter.
func joinUnderFilter(lit int64) (logical.Node, *logical.Scan, *logical.Scan) {
	r, s := datagen.FKPair(5, datagen.FKConfig{RRows: 400, SRows: 1600, AGroups: 40, Dense: true})
	rs, ss := &logical.Scan{Table: "R", Rel: r}, &logical.Scan{Table: "S", Rel: s}
	return &logical.Project{
		Cols: []string{"A", "M"},
		Input: &logical.Join{
			Left:    &logical.Filter{Input: rs, Pred: expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "A"}, R: expr.IntLit{V: lit}}},
			Right:   ss,
			LeftKey: "ID", RightKey: "R_ID",
		},
	}, rs, ss
}

// TestRebindCopiesOnlyTheFilterSpine: a rebound plan shares every subtree
// without a filter with its template, copies the nodes from the root to each
// filter, and leaves the template as it was — concurrent executions of one
// template read the same shared nodes.
func TestRebindCopiesOnlyTheFilterSpine(t *testing.T) {
	n, _, _ := joinUnderFilter(10)
	cached, err := Optimize(n, DQO())
	if err != nil {
		t.Fatal(err)
	}
	before := cached.Best.Explain()

	next, _, _ := joinUnderFilter(3)
	res, err := Rebind(cached, next)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Best.Explain() != before {
		t.Fatalf("rebinding wrote the template:\n%s\nwas\n%s", cached.Best.Explain(), before)
	}
	if res.Stats.Alternatives != 0 {
		t.Fatalf("rebind enumerated %d alternatives", res.Stats.Alternatives)
	}

	var shared, copied, filters int
	var walk func(tmpl, got *Plan)
	walk = func(tmpl, got *Plan) {
		hasFilter := false
		tmpl.PreOrder(func(p *Plan, _ int) { hasFilter = hasFilter || p.Op == OpFilter })
		switch {
		case !hasFilter:
			if got != tmpl {
				t.Errorf("%s holds no filter but was copied", tmpl.Label())
			}
			shared++
			return
		case got == tmpl:
			t.Errorf("%s leads to a filter but is the template's own node", tmpl.Label())
		default:
			copied++
		}
		if got.Op == OpFilter {
			filters++
			if got.Label() != "Filter((A < 3))" {
				t.Errorf("rebound filter is %s", got.Label())
			}
		}
		for i := range tmpl.Children {
			walk(tmpl.Children[i], got.Children[i])
		}
	}
	walk(cached.Best, res.Best)
	if filters != 1 || shared == 0 || copied == 0 {
		t.Fatalf("filters=%d shared=%d copied=%d", filters, shared, copied)
	}

	out, err := Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Execute(next)
	if err != nil {
		t.Fatal(err)
	}
	if err := naive.Check(out, want, "", -1); err != nil {
		t.Fatalf("rebound plan differs from the reference: %v", err)
	}
}

// TestRebindRejectsAnotherShape: the filter count of the new tree must match
// the template's, whichever side has more.
func TestRebindRejectsAnotherShape(t *testing.T) {
	n, rs, _ := joinUnderFilter(10)
	cached, err := Optimize(n, DQO())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rebind(cached, rs); err == nil {
		t.Fatal("a tree without filters rebound into a template with one")
	}
	bare, err := Optimize(rs, DQO())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rebind(bare, n); err == nil {
		t.Fatal("a tree with a filter rebound into a template without one")
	}
	if res, err := Rebind(bare, rs); err != nil || res.Best != bare.Best {
		t.Fatalf("a plan without filters is shared whole: %v", err)
	}
}
