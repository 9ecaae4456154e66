package sql

import (
	"fmt"
	"strings"

	"dqo/internal/expr"
)

// SelectStmt is the parsed form of the supported statement class:
//
//	SELECT item [, item]...
//	FROM table [alias]
//	[JOIN table [alias] ON col = col]...
//	[WHERE predicate]
//	[GROUP BY col]
//	[ORDER BY col]
//	[LIMIT n]
type SelectStmt struct {
	Items   []SelectItem
	Star    bool // SELECT *: Items is empty
	From    TableRef
	Joins   []JoinClause
	Where   expr.Expr // nil if absent
	GroupBy string    // qualified column, "" if absent
	Having  expr.Expr // nil if absent; refers to group output columns
	OrderBy string    // qualified column, "" if absent
	Limit   int       // -1 if absent
	Params  int       // positional "?" parameters in WHERE/HAVING; 0 for a concrete statement
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// Name returns the alias under which the table is visible.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinClause is one INNER JOIN ... ON left = right.
type JoinClause struct {
	Table TableRef
	Left  string // qualified or bare column
	Right string
}

// SelectItem is either a plain column reference or an aggregate call.
type SelectItem struct {
	Col   string        // qualified or bare; "" for aggregates
	Agg   *expr.AggSpec // nil for plain columns
	Alias string
}

// String reconstructs a normalised form of the statement (for cache keys
// and EXPLAIN headers).
func (s *SelectStmt) String() string { return s.render(false) }

// render writes the statement in its normalised form; with shape set, every
// literal — WHERE/HAVING constants and the LIMIT count — renders as "?"
// (see Fingerprint).
func (s *SelectStmt) render(shape bool) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Star {
		b.WriteString("*")
	}
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		switch {
		case it.Agg != nil:
			parts[i] = it.Agg.String()
		case it.Alias != "":
			parts[i] = it.Col + " AS " + it.Alias
		default:
			parts[i] = it.Col
		}
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteString(" FROM " + s.From.Table)
	if s.From.Alias != "" && s.From.Alias != s.From.Table {
		b.WriteString(" " + s.From.Alias)
	}
	for _, j := range s.Joins {
		fmt.Fprintf(&b, " JOIN %s", j.Table.Table)
		if j.Table.Alias != "" && j.Table.Alias != j.Table.Table {
			b.WriteString(" " + j.Table.Alias)
		}
		fmt.Fprintf(&b, " ON %s = %s", j.Left, j.Right)
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + renderExpr(s.Where, shape))
	}
	if s.GroupBy != "" {
		b.WriteString(" GROUP BY " + s.GroupBy)
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + renderExpr(s.Having, shape))
	}
	if s.OrderBy != "" {
		b.WriteString(" ORDER BY " + s.OrderBy)
	}
	switch {
	case s.Limit >= 0 && shape:
		b.WriteString(" LIMIT ?")
	case s.Limit >= 0:
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}
