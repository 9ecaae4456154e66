package sql

import (
	"testing"

	"dqo/internal/logical"
)

// collectScans lists a tree's scan nodes in pre-order.
func collectScans(n logical.Node, out []*logical.Scan) []*logical.Scan {
	if s, ok := n.(*logical.Scan); ok {
		out = append(out, s)
	}
	for _, c := range n.Children() {
		out = collectScans(c, out)
	}
	return out
}

// TestBindTreeMatchesBindArgs: substituting arguments into a statement bound
// once as a template gives the tree that substituting first and binding
// afterwards gives, shares the template's scans, and leaves the template's
// parameters open for the next argument set.
func TestBindTreeMatchesBindArgs(t *testing.T) {
	cat := paperCatalog(t)
	for _, q := range []string{
		"SELECT ID FROM R WHERE A = ?",
		"SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < ? AND S.M >= ? GROUP BY R.A HAVING count_star > ? ORDER BY R.A",
		"SELECT ID FROM R WHERE A < 5 ORDER BY ID",
		"SELECT * FROM R",
	} {
		tmpl, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := BindTemplate(tmpl, cat)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		before := logical.Format(bound)
		for _, args := range [][]any{{7, int64(3), 2.5}, {"x", 0, uint32(9)}} {
			args = args[:tmpl.Params]
			lits, err := Literals(tmpl.Params, args)
			if err != nil {
				t.Fatal(err)
			}
			got := BindTree(bound, lits)
			concrete, err := BindArgs(tmpl, args)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Bind(concrete, cat)
			if err != nil {
				t.Fatal(err)
			}
			if logical.Format(got) != logical.Format(want) {
				t.Fatalf("%s %v:\n got %s\nwant %s", q, args, logical.Format(got), logical.Format(want))
			}
			gs, bs := collectScans(got, nil), collectScans(bound, nil)
			for i := range bs {
				if gs[i] != bs[i] {
					t.Fatalf("%s: scan %d was copied", q, i)
				}
			}
			if tmpl.Params == 0 && got != bound {
				t.Fatalf("%s: a tree without parameters was copied", q)
			}
		}
		if logical.Format(bound) != before {
			t.Fatalf("%s: the template was written:\n%s\nwas\n%s", q, logical.Format(bound), before)
		}
	}
	if _, err := Literals(1, nil); err == nil {
		t.Fatal("missing argument accepted")
	}
	if _, err := Literals(1, []any{[]byte("x")}); err == nil {
		t.Fatal("unsupported argument type accepted")
	}
}
