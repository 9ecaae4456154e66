// Package expr implements scalar expressions (predicates, arithmetic) and
// aggregate specifications evaluated over columnar relations.
//
// Expression evaluation is vectorised: an expression evaluates over a whole
// relation into a typed result vector. The hot loops do not go through this
// interpreter — aggregation in internal/physical reads raw columns, and
// filters whose predicate is a column compared with a literal run the typed
// kernel in select.go — so the interpreter favours clarity over
// micro-optimisation. It evaluates arithmetic and column-against-column
// predicates, and is the reference the kernel is tested against.
package expr

import (
	"fmt"
	"strings"

	"dqo/internal/storage"
)

// Op is a binary operator.
type Op uint8

// Binary operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	default:
		return "?"
	}
}

// comparison reports whether the operator yields booleans from scalars.
func (o Op) comparison() bool { return o <= OpGe }

// logical reports whether the operator combines booleans.
func (o Op) logical() bool { return o == OpAnd || o == OpOr }

// Expr is a scalar expression tree.
type Expr interface {
	// String renders the expression in SQL-ish syntax.
	String() string
	// Columns appends the column names referenced to dst.
	Columns(dst []string) []string
}

// Col references a column by name.
type Col struct{ Name string }

// String implements Expr.
func (c Col) String() string { return c.Name }

// Columns implements Expr.
func (c Col) Columns(dst []string) []string { return append(dst, c.Name) }

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// String implements Expr.
func (l IntLit) String() string { return fmt.Sprintf("%d", l.V) }

// Columns implements Expr.
func (l IntLit) Columns(dst []string) []string { return dst }

// FloatLit is a float literal.
type FloatLit struct{ V float64 }

// String implements Expr.
func (l FloatLit) String() string { return fmt.Sprintf("%g", l.V) }

// Columns implements Expr.
func (l FloatLit) Columns(dst []string) []string { return dst }

// StrLit is a string literal.
type StrLit struct{ V string }

// String implements Expr, escaping embedded quotes SQL-style.
func (l StrLit) String() string {
	return "'" + strings.ReplaceAll(l.V, "'", "''") + "'"
}

// Columns implements Expr.
func (l StrLit) Columns(dst []string) []string { return dst }

// Param is a positional statement parameter ("?"); Idx is its 0-based
// position in the statement text. Parameters carry no value — they are
// slots a prepared statement substitutes typed literals into before the
// binder runs; evaluating one is an error.
type Param struct{ Idx int }

// String implements Expr.
func (p Param) String() string { return "?" }

// Columns implements Expr.
func (p Param) Columns(dst []string) []string { return dst }

// Bin is a binary expression.
type Bin struct {
	Op   Op
	L, R Expr
}

// String implements Expr.
func (b Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Columns implements Expr.
func (b Bin) Columns(dst []string) []string {
	return b.R.Columns(b.L.Columns(dst))
}

// resultKind is the evaluated type of an expression.
type resultKind uint8

const (
	rkBool resultKind = iota
	rkInt
	rkFloat
	rkString
)

// result is a vectorised evaluation result. Exactly one slice is populated.
type result struct {
	kind   resultKind
	bools  []bool
	ints   []int64
	floats []float64
	strs   []string
}

// EvalPredicate evaluates e over rel and returns one bool per row. The
// expression must be boolean-typed.
func EvalPredicate(e Expr, rel *storage.Relation) ([]bool, error) {
	r, err := eval(e, rel)
	if err != nil {
		return nil, err
	}
	if r.kind != rkBool {
		return nil, fmt.Errorf("expr: %s is not a predicate", e)
	}
	return r.bools, nil
}

func eval(e Expr, rel *storage.Relation) (result, error) {
	switch e := e.(type) {
	case Col:
		return evalCol(e, rel)
	case IntLit:
		return result{kind: rkInt, ints: broadcastInt(e.V, rel.NumRows())}, nil
	case FloatLit:
		return result{kind: rkFloat, floats: broadcastFloat(e.V, rel.NumRows())}, nil
	case StrLit:
		return result{kind: rkString, strs: broadcastStr(e.V, rel.NumRows())}, nil
	case Bin:
		return evalBin(e, rel)
	default:
		return result{}, fmt.Errorf("expr: unknown expression type %T", e)
	}
}

func broadcastInt(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func broadcastFloat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func broadcastStr(v string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func evalCol(c Col, rel *storage.Relation) (result, error) {
	col, ok := rel.Column(c.Name)
	if !ok {
		return result{}, fmt.Errorf("expr: unknown column %q", c.Name)
	}
	switch col.Kind() {
	case storage.KindUint32:
		out := make([]int64, col.Len())
		for i, v := range col.Uint32s() {
			out[i] = int64(v)
		}
		return result{kind: rkInt, ints: out}, nil
	case storage.KindUint64:
		out := make([]int64, col.Len())
		for i, v := range col.Uint64s() {
			out[i] = int64(v)
		}
		return result{kind: rkInt, ints: out}, nil
	case storage.KindInt64:
		return result{kind: rkInt, ints: col.Int64s()}, nil
	case storage.KindFloat64:
		return result{kind: rkFloat, floats: col.Float64s()}, nil
	case storage.KindString:
		out := make([]string, col.Len())
		d := col.Dict()
		for i, code := range col.Uint32s() {
			out[i] = d.Lookup(code)
		}
		return result{kind: rkString, strs: out}, nil
	default:
		return result{}, fmt.Errorf("expr: column %q has invalid kind", c.Name)
	}
}

func evalBin(b Bin, rel *storage.Relation) (result, error) {
	l, err := eval(b.L, rel)
	if err != nil {
		return result{}, err
	}
	r, err := eval(b.R, rel)
	if err != nil {
		return result{}, err
	}
	if b.Op.logical() {
		if l.kind != rkBool || r.kind != rkBool {
			return result{}, fmt.Errorf("expr: %s requires boolean operands", b.Op)
		}
		out := make([]bool, len(l.bools))
		if b.Op == OpAnd {
			for i := range out {
				out[i] = l.bools[i] && r.bools[i]
			}
		} else {
			for i := range out {
				out[i] = l.bools[i] || r.bools[i]
			}
		}
		return result{kind: rkBool, bools: out}, nil
	}

	// Promote int to float when mixed.
	if l.kind == rkInt && r.kind == rkFloat {
		l = toFloat(l)
	}
	if l.kind == rkFloat && r.kind == rkInt {
		r = toFloat(r)
	}
	if l.kind != r.kind {
		return result{}, fmt.Errorf("expr: type mismatch %s: %v vs %v", b.Op, l.kind, r.kind)
	}

	if b.Op.comparison() {
		out := make([]bool, lenOf(l))
		switch l.kind {
		case rkInt:
			cmpSlice(out, b.Op, l.ints, r.ints)
		case rkFloat:
			cmpSlice(out, b.Op, l.floats, r.floats)
		case rkString:
			cmpSlice(out, b.Op, l.strs, r.strs)
		default:
			return result{}, fmt.Errorf("expr: cannot compare booleans with %s", b.Op)
		}
		return result{kind: rkBool, bools: out}, nil
	}

	// Arithmetic.
	switch l.kind {
	case rkInt:
		out := make([]int64, len(l.ints))
		arith(out, b.Op, l.ints, r.ints)
		return result{kind: rkInt, ints: out}, nil
	case rkFloat:
		out := make([]float64, len(l.floats))
		arith(out, b.Op, l.floats, r.floats)
		return result{kind: rkFloat, floats: out}, nil
	default:
		return result{}, fmt.Errorf("expr: arithmetic %s on non-numeric operands", b.Op)
	}
}

func toFloat(r result) result {
	out := make([]float64, len(r.ints))
	for i, v := range r.ints {
		out[i] = float64(v)
	}
	return result{kind: rkFloat, floats: out}
}

func lenOf(r result) int {
	switch r.kind {
	case rkBool:
		return len(r.bools)
	case rkInt:
		return len(r.ints)
	case rkFloat:
		return len(r.floats)
	default:
		return len(r.strs)
	}
}

func cmpSlice[T int64 | float64 | string](out []bool, op Op, l, r []T) {
	switch op {
	case OpEq:
		for i := range out {
			out[i] = l[i] == r[i]
		}
	case OpNe:
		for i := range out {
			out[i] = l[i] != r[i]
		}
	case OpLt:
		for i := range out {
			out[i] = l[i] < r[i]
		}
	case OpLe:
		for i := range out {
			out[i] = l[i] <= r[i]
		}
	case OpGt:
		for i := range out {
			out[i] = l[i] > r[i]
		}
	case OpGe:
		for i := range out {
			out[i] = l[i] >= r[i]
		}
	}
}

func arith[T int64 | float64](out []T, op Op, l, r []T) {
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case OpSub:
		for i := range out {
			out[i] = l[i] - r[i]
		}
	case OpMul:
		for i := range out {
			out[i] = l[i] * r[i]
		}
	}
}
