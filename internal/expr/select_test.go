package expr

import (
	"math"
	"slices"
	"testing"

	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// reference is what the filter kernel must agree with: the interpreter's
// []bool over the whole relation, read off into row indexes.
func reference(e Expr, rel *storage.Relation) ([]int32, error) {
	keep, err := EvalPredicate(e, rel)
	if err != nil {
		return nil, err
	}
	out := []int32{}
	for i, k := range keep {
		if k {
			out = append(out, int32(i))
		}
	}
	return out, nil
}

// agree checks Selectivity against the interpreter: the same rows, or an
// error from both.
func agree(t *testing.T, e Expr, rel *storage.Relation) {
	t.Helper()
	want, wantErr := reference(e, rel)
	got, err := Selectivity(e, rel)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: kernel err = %v, interpreter err = %v", e, err, wantErr)
	}
	if err == nil && !slices.Equal(got, want) {
		t.Fatalf("%s: kernel selects %v, interpreter %v", e, got, want)
	}
	storage.PutInt32s(got)
}

var comparisons = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// kernelRel holds one column of every kind, with values on both sides of
// each boundary literal below. The string column's dictionary is not in
// string order ("pear" is interned before "apple").
func kernelRel() *storage.Relation {
	return storage.MustNewRelation("t",
		storage.NewUint32("u32", []uint32{0, 1, 7, math.MaxUint32 - 1, math.MaxUint32, 7, 2}),
		storage.NewUint64("u64", []uint64{0, 7, math.MaxUint32, math.MaxUint32 + 1, math.MaxInt64, math.MaxInt64 + 1, math.MaxUint64}),
		storage.NewInt64("i64", []int64{math.MinInt64, -8, -1, 0, 7, math.MaxUint32 + 1, math.MaxInt64}),
		storage.NewFloat64("f64", []float64{math.Inf(-1), -7.5, -0.0, 0, 7, 7.5, math.NaN()}),
		storage.NewString("s", []string{"pear", "apple", "fig", "pear", "", "zebra", "apple"}),
	)
}

var boundaryLiterals = []Expr{
	IntLit{math.MinInt64}, IntLit{-8}, IntLit{-1}, IntLit{0}, IntLit{7}, IntLit{8},
	IntLit{math.MaxUint32}, IntLit{math.MaxUint32 + 1}, IntLit{math.MaxInt64},
	FloatLit{-7.5}, FloatLit{0}, FloatLit{6.5}, FloatLit{7}, FloatLit{7.5},
	FloatLit{math.MaxUint32}, FloatLit{1e19}, FloatLit{math.Inf(1)}, FloatLit{math.NaN()},
	StrLit{"apple"}, StrLit{"pear"}, StrLit{""}, StrLit{"grape"}, StrLit{"zzz"},
}

func TestKernelMatchesInterpreter(t *testing.T) {
	rel := kernelRel()
	empty := rel.Gather(nil, nil)
	for _, name := range rel.ColumnNames() {
		for _, op := range comparisons {
			for _, lit := range boundaryLiterals {
				// Mismatched kinds (a string literal against a number column
				// and the reverse) are part of the grid: both must reject.
				agree(t, Bin{op, Col{name}, lit}, rel)
				agree(t, Bin{op, lit, Col{name}}, rel)
				agree(t, Bin{op, Col{name}, lit}, empty)
			}
		}
	}
	agree(t, Bin{OpEq, Col{"nope"}, IntLit{1}}, rel)
}

func TestKernelConjunctionsAndDisjunctions(t *testing.T) {
	rel := kernelRel()
	leaves := []Expr{
		Bin{OpGe, Col{"u32"}, IntLit{2}},
		Bin{OpLt, Col{"i64"}, IntLit{7}},
		Bin{OpNe, Col{"s"}, StrLit{"pear"}},
		Bin{OpGt, Col{"s"}, StrLit{"b"}},
		Bin{OpLe, FloatLit{0}, Col{"f64"}},
		Bin{OpEq, Col{"u64"}, IntLit{-1}},
		// Not kernel shapes: arithmetic and column against column run
		// through the interpreter and narrow the same vector.
		Bin{OpGt, Bin{OpAdd, Col{"i64"}, IntLit{1}}, IntLit{0}},
		Bin{OpLt, Col{"u32"}, Col{"i64"}},
		// Selects nothing, so whatever it is ANDed with narrows zero rows.
		Bin{OpEq, Col{"s"}, StrLit{"grape"}},
	}
	for _, a := range leaves {
		for _, b := range leaves {
			agree(t, Bin{OpAnd, a, b}, rel)
			agree(t, Bin{OpOr, a, b}, rel)
			for _, c := range leaves {
				agree(t, Bin{OpAnd, Bin{OpOr, a, b}, c}, rel)
				agree(t, Bin{OpOr, a, Bin{OpAnd, b, c}}, rel)
				agree(t, Bin{OpAnd, a, Bin{OpOr, b, Bin{OpAnd, c, a}}}, rel)
			}
		}
	}
	// An error on either side of a nest surfaces, even when the other side
	// has already selected nothing.
	bad := Bin{OpEq, Col{"u32"}, StrLit{"x"}}
	none := Bin{OpEq, Col{"s"}, StrLit{"grape"}}
	for _, e := range []Expr{
		Bin{OpAnd, none, bad}, Bin{OpAnd, bad, none}, Bin{OpOr, none, bad}, Bin{OpOr, bad, none},
		Bin{OpAnd, leaves[0], Col{"u32"}}, Bin{OpAnd, leaves[0], Param{0}},
	} {
		agree(t, e, rel)
		if _, err := Selectivity(e, rel); err == nil {
			t.Fatalf("%s: no error", e)
		}
	}
}

// The kernel shapes allocate nothing per row: no widened copy of the
// column, no broadcast literal, no []bool. (An ordering comparison on
// strings allocates one verdict per dictionary entry.)
func TestKernelAllocatesNothingPerRow(t *testing.T) {
	n := 1 << 14
	u, v, s := make([]uint32, n), make([]int64, n), make([]string, n)
	for i := range u {
		u[i], v[i], s[i] = uint32(i%100), int64(i%7)-3, []string{"a", "b", "c"}[i%3]
	}
	rel := storage.MustNewRelation("t", storage.NewUint32("u", u), storage.NewInt64("v", v), storage.NewString("s", s))
	pred := Bin{OpAnd,
		Bin{OpAnd, Bin{OpLt, Col{"u"}, IntLit{50}}, Bin{OpGe, Col{"v"}, FloatLit{-0.5}}},
		Bin{OpOr, Bin{OpEq, Col{"s"}, StrLit{"a"}}, Bin{OpEq, Col{"s"}, StrLit{"nope"}}}}
	run := func() {
		idx, err := Selectivity(pred, rel)
		if err != nil {
			t.Fatal(err)
		}
		storage.PutInt32s(idx)
	}
	run() // fill the vector pool
	// What remains is the pool handing vectors back and forth: a few dozen
	// bytes per vector, against 16 bytes per row for the interpreter's copies.
	if got := testing.AllocsPerRun(20, run); got > 16 {
		t.Fatalf("%v allocations per filter of %d rows", got, n)
	}
}

// BenchmarkSelectivity prices the filter kernel over 64 Ki uint32 rows.
// periodic is a range conjunct (the full scan, then a narrowing pass over its
// candidates) on the values i*7 % 1000, which keeps every second row in a
// pattern a branch predictor learns. The random cases compare values drawn
// uniformly from [0, 1000) against a literal that keeps 1 %, 50 % or 99 % of
// them: a kernel that branched on each row's outcome would pay a mispredict
// on about every second row at 50 % and almost none at 1 % or 99 %, so the
// three cost the same only when no branch depends on the data.
func BenchmarkSelectivity(b *testing.B) {
	n := 1 << 16
	periodic, random := make([]uint32, n), make([]uint32, n)
	r := xrand.New(7)
	for i := range periodic {
		periodic[i] = uint32(i * 7 % 1000)
		random[i] = r.Uint32n(1000)
	}
	rel := storage.MustNewRelation("t", storage.NewUint32("u", periodic), storage.NewUint32("r", random))
	for _, c := range []struct {
		name string
		pred Expr
	}{
		{"periodic", Bin{OpAnd, Bin{OpGe, Col{"u"}, IntLit{100}}, Bin{OpLt, Col{"u"}, IntLit{600}}}},
		{"random-1%", Bin{OpLt, Col{"r"}, IntLit{10}}},
		{"random-50%", Bin{OpLt, Col{"r"}, IntLit{500}}},
		{"random-99%", Bin{OpLt, Col{"r"}, IntLit{990}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				idx, err := Selectivity(c.pred, rel)
				if err != nil {
					b.Fatal(err)
				}
				storage.PutInt32s(idx)
			}
		})
	}
}
