package physical

import (
	"testing"

	"dqo/internal/expr"
	"dqo/internal/storage"
)

// TestRelopsMorselDecomposable pins the contract the morsel executor
// relies on: FilterRel and ProjectRel distribute over row-range
// chunking — kernel(rel) == concat(kernel(chunk) for each chunk) — for
// any chunk size.
func TestRelopsMorselDecomposable(t *testing.T) {
	n := 97
	keys := make([]uint32, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = uint32(i * 7 % 50)
		vals[i] = int64(i)
	}
	rel := storage.MustNewRelation("t",
		storage.NewUint32("k", keys), storage.NewInt64("v", vals))
	pred := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "k"}, R: expr.IntLit{V: 20}}

	chunked := func(kernel func(*storage.Relation) (*storage.Relation, error), morsel int) *storage.Relation {
		t.Helper()
		var parts []*storage.Relation
		for lo := 0; lo < n; lo += morsel {
			hi := lo + morsel
			if hi > n {
				hi = n
			}
			out, err := kernel(rel.Slice(lo, hi))
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, out)
		}
		whole, err := storage.Concat(nil, parts)
		if err != nil {
			t.Fatal(err)
		}
		return whole
	}

	filter := func(r *storage.Relation) (*storage.Relation, error) { return FilterRel(r, pred, nil, nil) }
	project := func(r *storage.Relation) (*storage.Relation, error) { return ProjectRel(r, "v") }

	wantF, err := FilterRel(rel, pred, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := ProjectRel(rel, "v")
	if err != nil {
		t.Fatal(err)
	}
	for _, morsel := range []int{1, 7, 64, n, 4 * n} {
		if got := chunked(filter, morsel); !got.Equal(wantF) {
			t.Errorf("FilterRel not morsel-decomposable at morsel=%d", morsel)
		}
		if got := chunked(project, morsel); !got.Equal(wantP) {
			t.Errorf("ProjectRel not morsel-decomposable at morsel=%d", morsel)
		}
	}
}
