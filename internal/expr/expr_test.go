package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"dqo/internal/storage"
)

func testRel(t *testing.T) *storage.Relation {
	t.Helper()
	return storage.MustNewRelation("t",
		storage.NewUint32("id", []uint32{1, 2, 3, 4}),
		storage.NewInt64("v", []int64{-10, 0, 10, 20}),
		storage.NewFloat64("f", []float64{0.5, 1.5, 2.5, 3.5}),
		storage.NewString("s", []string{"a", "b", "a", "c"}),
	)
}

func TestEvalPredicateComparisons(t *testing.T) {
	rel := testRel(t)
	cases := []struct {
		e    Expr
		want []bool
	}{
		{Bin{OpEq, Col{"id"}, IntLit{2}}, []bool{false, true, false, false}},
		{Bin{OpNe, Col{"id"}, IntLit{2}}, []bool{true, false, true, true}},
		{Bin{OpLt, Col{"v"}, IntLit{0}}, []bool{true, false, false, false}},
		{Bin{OpLe, Col{"v"}, IntLit{0}}, []bool{true, true, false, false}},
		{Bin{OpGt, Col{"f"}, FloatLit{1.5}}, []bool{false, false, true, true}},
		{Bin{OpGe, Col{"f"}, FloatLit{1.5}}, []bool{false, true, true, true}},
		{Bin{OpEq, Col{"s"}, StrLit{"a"}}, []bool{true, false, true, false}},
	}
	for _, c := range cases {
		got, err := EvalPredicate(c.e, rel)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("%s: row %d = %v, want %v", c.e, i, got[i], c.want[i])
			}
		}
	}
}

func TestEvalLogical(t *testing.T) {
	rel := testRel(t)
	e := Bin{OpAnd,
		Bin{OpGt, Col{"v"}, IntLit{-5}},
		Bin{OpLt, Col{"id"}, IntLit{4}},
	}
	got, err := EvalPredicate(e, rel)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	or := Bin{OpOr,
		Bin{OpEq, Col{"id"}, IntLit{1}},
		Bin{OpEq, Col{"id"}, IntLit{4}},
	}
	got, err = EvalPredicate(or, rel)
	if err != nil {
		t.Fatal(err)
	}
	want = []bool{true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OR row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEvalArithmeticAndPromotion(t *testing.T) {
	rel := testRel(t)
	// (v + 10) * 2 > 25  — int arithmetic
	e := Bin{OpGt, Bin{OpMul, Bin{OpAdd, Col{"v"}, IntLit{10}}, IntLit{2}}, IntLit{25}}
	got, err := EvalPredicate(e, rel)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true, true} // (v+10)*2 = 0, 20, 40, 60
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	// int column compared against float literal: promotion.
	p := Bin{OpGt, Col{"v"}, FloatLit{-0.5}}
	got, err = EvalPredicate(p, rel)
	if err != nil {
		t.Fatal(err)
	}
	want = []bool{false, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("promotion row %d = %v, want %v", i, got[i], want[i])
		}
	}
	// float - int subtraction promotes too.
	q := Bin{OpGe, Bin{OpSub, Col{"f"}, IntLit{1}}, FloatLit{1.5}}
	got, err = EvalPredicate(q, rel)
	if err != nil {
		t.Fatal(err)
	}
	want = []bool{false, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("float-int row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEvalErrors(t *testing.T) {
	rel := testRel(t)
	cases := []Expr{
		Col{"missing"},                  // unknown column (as predicate: non-bool too, but eval fails first)
		Bin{OpAnd, Col{"v"}, IntLit{1}}, // AND over non-booleans
		Bin{OpAdd, Col{"s"}, IntLit{1}}, // arithmetic on strings
		Bin{OpEq, Col{"s"}, IntLit{1}},  // type mismatch
		Bin{OpEq, Bin{OpEq, Col{"id"}, IntLit{1}}, Bin{OpEq, Col{"id"}, IntLit{1}}}, // comparing booleans
	}
	for _, e := range cases {
		if _, err := EvalPredicate(e, rel); err == nil {
			t.Errorf("%s: expected error", e)
		}
	}
	// A non-boolean expression is rejected as a predicate.
	if _, err := EvalPredicate(Bin{OpAdd, Col{"v"}, IntLit{1}}, rel); err == nil {
		t.Error("arithmetic accepted as predicate")
	}
}

func TestSelectivity(t *testing.T) {
	rel := testRel(t)
	idx, err := Selectivity(Bin{OpGe, Col{"v"}, IntLit{0}}, rel)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, 3}
	if len(idx) != len(want) {
		t.Fatalf("idx = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
}

func TestSelectivityMatchesBruteForce(t *testing.T) {
	f := func(vals []int64, threshold int64) bool {
		rel := storage.MustNewRelation("t", storage.NewInt64("v", vals))
		idx, err := Selectivity(Bin{OpLt, Col{"v"}, IntLit{threshold}}, rel)
		if err != nil {
			return false
		}
		var want []int32
		for i, v := range vals {
			if v < threshold {
				want = append(want, int32(i))
			}
		}
		if len(idx) != len(want) {
			return false
		}
		for i := range want {
			if idx[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExprString(t *testing.T) {
	e := Bin{OpAnd, Bin{OpEq, Col{"a"}, IntLit{1}}, Bin{OpLt, Col{"b"}, FloatLit{2.5}}}
	got := e.String()
	if got != "((a = 1) AND (b < 2.5))" {
		t.Fatalf("String = %q", got)
	}
	if (StrLit{"x"}).String() != "'x'" {
		t.Fatal("string literal rendering wrong")
	}
}

func TestExprColumns(t *testing.T) {
	e := Bin{OpAnd, Bin{OpEq, Col{"a"}, IntLit{1}}, Bin{OpLt, Col{"b"}, Col{"c"}}}
	cols := e.Columns(nil)
	want := "a,b,c"
	if strings.Join(cols, ",") != want {
		t.Fatalf("Columns = %v, want %s", cols, want)
	}
}

func TestAggSpecNames(t *testing.T) {
	if (AggSpec{Func: AggCount}).OutName() != "count_star" {
		t.Fatal("COUNT(*) default name wrong")
	}
	if (AggSpec{Func: AggSum, Col: "v"}).OutName() != "sum_v" {
		t.Fatal("SUM default name wrong")
	}
	if (AggSpec{Func: AggSum, Col: "v", As: "total"}).OutName() != "total" {
		t.Fatal("alias ignored")
	}
	s := AggSpec{Func: AggAvg, Col: "v", As: "m"}.String()
	if s != "AVG(v) AS m" {
		t.Fatalf("String = %q", s)
	}
}

func TestAggSpecValidate(t *testing.T) {
	if err := (AggSpec{Func: AggSum}).Validate(); err == nil {
		t.Fatal("SUM without column accepted")
	}
	if err := (AggSpec{Func: AggCount}).Validate(); err != nil {
		t.Fatalf("COUNT(*) rejected: %v", err)
	}
	if err := (AggSpec{Func: AggFunc(99), Col: "v"}).Validate(); err == nil {
		t.Fatal("invalid function accepted")
	}
}
