package sql

import (
	"fmt"

	"dqo/internal/expr"
	"dqo/internal/logical"
)

// BindArgs returns a copy of s with every positional "?" parameter replaced
// by a typed literal for the corresponding argument, in statement order. The
// copy is concrete (Params == 0) and binds like any other statement; s is
// left untouched, so one prepared statement can be bound concurrently with
// different argument sets. The argument count must match exactly.
func BindArgs(s *SelectStmt, args []any) (*SelectStmt, error) {
	lits, err := Literals(s.Params, args)
	if err != nil {
		return nil, err
	}
	out := *s
	out.Params = 0
	if s.Where != nil {
		out.Where, _ = substExpr(s.Where, lits)
	}
	if s.Having != nil {
		out.Having, _ = substExpr(s.Having, lits)
	}
	return &out, nil
}

// Literals converts one argument set into the literal nodes the parser would
// have produced, checking the count against the statement's parameters.
func Literals(params int, args []any) ([]expr.Expr, error) {
	if len(args) != params {
		return nil, fmt.Errorf("sql: statement wants %d argument(s), got %d", params, len(args))
	}
	lits := make([]expr.Expr, len(args))
	for i, a := range args {
		lit, err := literal(a)
		if err != nil {
			return nil, fmt.Errorf("sql: argument %d: %w", i+1, err)
		}
		lits[i] = lit
	}
	return lits, nil
}

// BindTree is BindArgs for a statement already bound as a template
// (BindTemplate): it returns n with every parameter in its filter predicates
// replaced by the literal of that index. Only the filters that hold a
// parameter and the nodes above them are copied; scans and every other
// subtree are shared with n, which is left untouched.
func BindTree(n logical.Node, lits []expr.Expr) logical.Node {
	switch n := n.(type) {
	case *logical.Filter:
		in := BindTree(n.Input, lits)
		pred, changed := substExpr(n.Pred, lits)
		if in == n.Input && !changed {
			return n
		}
		return &logical.Filter{Input: in, Pred: pred}
	case *logical.Project:
		if in := BindTree(n.Input, lits); in != n.Input {
			cp := *n
			cp.Input = in
			return &cp
		}
	case *logical.GroupBy:
		if in := BindTree(n.Input, lits); in != n.Input {
			cp := *n
			cp.Input = in
			return &cp
		}
	case *logical.Sort:
		if in := BindTree(n.Input, lits); in != n.Input {
			cp := *n
			cp.Input = in
			return &cp
		}
	case *logical.Join:
		if l, r := BindTree(n.Left, lits), BindTree(n.Right, lits); l != n.Left || r != n.Right {
			cp := *n
			cp.Left, cp.Right = l, r
			return &cp
		}
	}
	return n
}

// substExpr returns the expression with parameters replaced by their
// literals, and whether it held any. Subtrees without parameters are shared,
// not copied.
func substExpr(e expr.Expr, lits []expr.Expr) (expr.Expr, bool) {
	switch e := e.(type) {
	case expr.Param:
		return lits[e.Idx], true
	case expr.Bin:
		l, lc := substExpr(e.L, lits)
		r, rc := substExpr(e.R, lits)
		if lc || rc {
			return expr.Bin{Op: e.Op, L: l, R: r}, true
		}
	}
	return e, false
}

// literal converts one Go argument value into the literal node the parser
// would have produced for it.
func literal(v any) (expr.Expr, error) {
	switch v := v.(type) {
	case int:
		return expr.IntLit{V: int64(v)}, nil
	case int32:
		return expr.IntLit{V: int64(v)}, nil
	case int64:
		return expr.IntLit{V: v}, nil
	case uint32:
		return expr.IntLit{V: int64(v)}, nil
	case uint64:
		if v > 1<<63-1 {
			return nil, fmt.Errorf("uint64 value %d overflows the engine's int64 literals", v)
		}
		return expr.IntLit{V: int64(v)}, nil
	case float32:
		return expr.FloatLit{V: float64(v)}, nil
	case float64:
		return expr.FloatLit{V: v}, nil
	case string:
		return expr.StrLit{V: v}, nil
	default:
		return nil, fmt.Errorf("unsupported parameter type %T", v)
	}
}
