package main

import (
	"fmt"
	"strings"
)

// A query is the benchmark's own description of one statement. It renders to
// SQL text for the engine and is evaluated directly by the reference
// evaluator, so the check shares no parser, planner or kernel with the engine.
type query struct {
	sel     []string // plain output columns, qualified ("R.A")
	aggs    []agg    // after the plain columns, in order
	from    string
	joins   []join
	where   []pred // ANDed
	groupBy string
	orderBy string
	limit   int // -1 for none
}

type agg struct {
	fn  string // "COUNT" (col empty) or "SUM"
	col string
}

type join struct {
	table       string
	left, right string // left names a column already in scope, right one of table
}

// A pred compares a column with a literal. arg >= 0 takes the literal from
// the call's argument list (a "?" in prepared text); otherwise lit is fixed.
type pred struct {
	col string
	op  string // = < <= > >=
	arg int
	lit int64
}

func (a agg) String() string {
	if a.fn == "COUNT" {
		return "COUNT(*)"
	}
	return a.fn + "(" + a.col + ")"
}

// sql renders the statement. With args == nil parameter slots render as "?"
// (prepared text); otherwise the arguments are written in as literals.
func (q *query) sql(args []int64) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	items := append([]string(nil), q.sel...)
	for _, a := range q.aggs {
		items = append(items, a.String())
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM " + q.from)
	for _, j := range q.joins {
		fmt.Fprintf(&b, " JOIN %s ON %s = %s", j.table, j.left, j.right)
	}
	for i, p := range q.where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		switch {
		case p.arg < 0:
			fmt.Fprintf(&b, "%s %s %d", p.col, p.op, p.lit)
		case args == nil:
			fmt.Fprintf(&b, "%s %s ?", p.col, p.op)
		default:
			fmt.Fprintf(&b, "%s %s %d", p.col, p.op, args[p.arg])
		}
	}
	if q.groupBy != "" {
		b.WriteString(" GROUP BY " + q.groupBy)
	}
	if q.orderBy != "" {
		b.WriteString(" ORDER BY " + q.orderBy)
	}
	if q.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.limit)
	}
	return b.String()
}
