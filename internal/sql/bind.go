package sql

import (
	"fmt"

	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/storage"
)

// Catalog resolves table names to stored relations.
type Catalog interface {
	Table(name string) (*storage.Relation, bool)
}

// Bind lowers a parsed statement onto the logical algebra. Every column in
// the produced plan is qualified as "alias.column", which makes multi-table
// queries clash-free by construction.
func Bind(stmt *SelectStmt, cat Catalog) (logical.Node, error) {
	if stmt.Params > 0 {
		return nil, fmt.Errorf("sql: statement has %d unbound parameter(s); supply arguments through a prepared statement", stmt.Params)
	}
	return BindTemplate(stmt, cat)
}

// BindTemplate is Bind for a statement that may still hold positional
// parameters: they stay in the tree's filter predicates as expr.Param, for
// BindTree to replace. Binding resolves names and places each WHERE conjunct
// on the scan or join it reads (logical.PushFilters) — a placement that
// depends on the statement's shape alone — so one bound template serves every
// argument set until the catalog changes.
func BindTemplate(stmt *SelectStmt, cat Catalog) (logical.Node, error) {
	node, err := bindAsWritten(stmt, cat)
	if err != nil {
		return nil, err
	}
	return logical.PushFilters(node), nil
}

// bindAsWritten lowers the statement clause by clause: the joins in FROM
// order, WHERE as one Filter over the whole join tree, then grouping,
// HAVING, ordering and projection.
func bindAsWritten(stmt *SelectStmt, cat Catalog) (logical.Node, error) {
	b := &binder{cat: cat, cols: map[string][]string{}, kinds: map[string]storage.Kind{}}

	var node logical.Node
	base, err := b.addTable(stmt.From)
	if err != nil {
		return nil, err
	}
	node = base
	for _, j := range stmt.Joins {
		scan, err := b.addTable(j.Table)
		if err != nil {
			return nil, err
		}
		left, err := b.resolve(j.Left)
		if err != nil {
			return nil, err
		}
		right, err := b.resolve(j.Right)
		if err != nil {
			return nil, err
		}
		if err := b.checkKey("JOIN", left, right); err != nil {
			return nil, err
		}
		// Accept the ON clause in either order: the key belonging to the
		// newly joined table goes to the right side.
		alias := j.Table.Name()
		leftIsNew := b.ownedBy(left, alias)
		rightIsNew := b.ownedBy(right, alias)
		switch {
		case leftIsNew && !rightIsNew:
			left, right = right, left
		case rightIsNew && !leftIsNew:
			// already correct
		case leftIsNew && rightIsNew:
			return nil, fmt.Errorf("sql: both join keys %s, %s come from %s", left, right, alias)
		default:
			return nil, fmt.Errorf("sql: neither join key %s nor %s comes from %s", left, right, alias)
		}
		node = &logical.Join{Left: node, Right: scan, LeftKey: left, RightKey: right}
	}

	if stmt.Where != nil {
		pred, err := b.rewriteExpr(stmt.Where)
		if err != nil {
			return nil, err
		}
		node = &logical.Filter{Input: node, Pred: pred}
	}

	var outCols []string
	if stmt.Star {
		if stmt.GroupBy != "" {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with GROUP BY")
		}
		outCols = append(outCols, node.Columns()...)
	}
	if stmt.GroupBy != "" {
		key, err := b.resolve(stmt.GroupBy)
		if err != nil {
			return nil, err
		}
		if err := b.checkKey("GROUP BY", key); err != nil {
			return nil, err
		}
		var aggs []expr.AggSpec
		for _, it := range stmt.Items {
			if it.Agg != nil {
				spec := *it.Agg
				if spec.Col != "" {
					col, err := b.resolve(spec.Col)
					if err != nil {
						return nil, err
					}
					spec.Col = col
				}
				aggs = append(aggs, spec)
				b.kinds[spec.OutName()] = spec.OutKind()
				outCols = append(outCols, spec.OutName())
				continue
			}
			col, err := b.resolve(it.Col)
			if err != nil {
				return nil, err
			}
			if col != key {
				return nil, fmt.Errorf("sql: column %s must appear in GROUP BY or inside an aggregate", it.Col)
			}
			outCols = append(outCols, col)
		}
		node = &logical.GroupBy{Input: node, Key: key, Aggs: aggs}
		if stmt.Having != nil {
			// HAVING predicates reference the grouping output schema
			// (the key and aggregate output names).
			pred, err := b.rewriteHaving(stmt.Having, node)
			if err != nil {
				return nil, err
			}
			node = &logical.Filter{Input: node, Pred: pred}
		}
	} else {
		for _, it := range stmt.Items {
			if it.Agg != nil {
				return nil, fmt.Errorf("sql: aggregate %s requires GROUP BY", it.Agg)
			}
			col, err := b.resolve(it.Col)
			if err != nil {
				return nil, err
			}
			outCols = append(outCols, col)
		}
	}

	if stmt.OrderBy != "" {
		key, err := b.resolveInSchema(stmt.OrderBy, node)
		if err != nil {
			return nil, err
		}
		if err := b.checkKey("ORDER BY", key); err != nil {
			return nil, err
		}
		node = &logical.Sort{Input: node, Key: key}
	}

	if len(outCols) > 0 && !sameColumns(outCols, node.Columns()) {
		node = &logical.Project{Input: node, Cols: outCols}
	}
	if err := checkOutputNames(stmt, node.Columns()); err != nil {
		return nil, err
	}
	return node, nil
}

// checkOutputNames rejects result schemas whose final column names clash
// after SELECT ... AS aliases are applied — at bind time, so the clash is a
// typed query error instead of a silent late failure when the result
// relation is assembled.
func checkOutputNames(stmt *SelectStmt, outCols []string) error {
	renames := map[string]string{}
	for _, it := range stmt.Items {
		if it.Agg != nil || it.Alias == "" {
			continue
		}
		if prev, ok := renames[it.Col]; ok && prev != it.Alias {
			return fmt.Errorf("sql: column %s aliased twice (AS %s and AS %s)", it.Col, prev, it.Alias)
		}
		renames[it.Col] = it.Alias
	}
	seen := make(map[string]string, len(outCols))
	for _, name := range outCols {
		final := name
		if a, ok := renames[name]; ok {
			final = a
		} else {
			// Bare reference in SELECT, qualified in the plan.
			for ref, a := range renames {
				if suffixAfterDot(name) == ref {
					final = a
					break
				}
			}
		}
		if prev, ok := seen[final]; ok {
			return fmt.Errorf("sql: duplicate output column %q (from %s and %s)", final, prev, name)
		}
		seen[final] = name
	}
	return nil
}

func suffixAfterDot(s string) string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return s[i+1:]
		}
	}
	return s
}

type binder struct {
	cat Catalog
	// cols maps a bare column name to the qualified names providing it.
	cols map[string][]string
	// kinds holds the kind of every qualified column and aggregate output.
	kinds  map[string]storage.Kind
	tables []string
}

// checkKey rejects a join, grouping or sort key the kernels cannot take:
// keys are uint32 columns or dictionary-encoded strings. Aggregate outputs
// are int64 (AVG float64), so no ORDER BY may name one.
func (b *binder) checkKey(clause string, cols ...string) error {
	for _, col := range cols {
		if k := b.kinds[col]; k != storage.KindUint32 && k != storage.KindString {
			return fmt.Errorf("sql: %s key %s has kind %s; keys must be uint32 or dictionary-encoded strings", clause, col, k)
		}
	}
	return nil
}

// addTable qualifies a base relation's columns with the table alias and
// returns its scan node.
func (b *binder) addTable(ref TableRef) (*logical.Scan, error) {
	rel, ok := b.cat.Table(ref.Table)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", ref.Table)
	}
	alias := ref.Name()
	for _, t := range b.tables {
		if t == alias {
			return nil, fmt.Errorf("sql: duplicate table alias %q", alias)
		}
	}
	b.tables = append(b.tables, alias)

	cols := make([]*storage.Column, 0, rel.NumCols())
	for _, c := range rel.Columns() {
		q := alias + "." + c.Name()
		cols = append(cols, c.Rename(q))
		b.cols[c.Name()] = append(b.cols[c.Name()], q)
		b.kinds[q] = c.Kind()
	}
	view, err := storage.NewRelation(alias, cols...)
	if err != nil {
		return nil, err
	}
	for _, corr := range rel.Corrs() {
		view.DeclareCorr(alias+"."+corr[0], alias+"."+corr[1])
	}
	return &logical.Scan{Table: alias, Rel: view}, nil
}

// resolve maps a (possibly bare) column reference to its qualified name.
func (b *binder) resolve(ref string) (string, error) {
	for i := 0; i < len(ref); i++ {
		if ref[i] == '.' {
			// Already qualified: verify it exists.
			base := ref[i+1:]
			for _, q := range b.cols[base] {
				if q == ref {
					return ref, nil
				}
			}
			return "", fmt.Errorf("sql: unknown column %q", ref)
		}
	}
	cands := b.cols[ref]
	switch len(cands) {
	case 0:
		return "", fmt.Errorf("sql: unknown column %q", ref)
	case 1:
		return cands[0], nil
	default:
		return "", fmt.Errorf("sql: ambiguous column %q (candidates: %v)", ref, cands)
	}
}

// resolveInSchema resolves ref against a node's output schema (used for
// ORDER BY, which may reference aggregate output names).
func (b *binder) resolveInSchema(ref string, node logical.Node) (string, error) {
	schema := node.Columns()
	for _, c := range schema {
		if c == ref {
			return ref, nil
		}
	}
	q, err := b.resolve(ref)
	if err != nil {
		return "", err
	}
	for _, c := range schema {
		if c == q {
			return q, nil
		}
	}
	return "", fmt.Errorf("sql: column %q is not in the result", ref)
}

// ownedBy reports whether qualified column q belongs to table alias.
func (b *binder) ownedBy(q, alias string) bool {
	return len(q) > len(alias) && q[:len(alias)] == alias && q[len(alias)] == '.'
}

// rewriteHaving resolves column references against a node's output schema
// (aggregate output names are visible; base columns resolve through the
// usual scope when they survive into the output).
func (b *binder) rewriteHaving(e expr.Expr, node logical.Node) (expr.Expr, error) {
	switch e := e.(type) {
	case expr.Col:
		name, err := b.resolveInSchema(e.Name, node)
		if err != nil {
			return nil, err
		}
		return expr.Col{Name: name}, nil
	case expr.Bin:
		l, err := b.rewriteHaving(e.L, node)
		if err != nil {
			return nil, err
		}
		r, err := b.rewriteHaving(e.R, node)
		if err != nil {
			return nil, err
		}
		return expr.Bin{Op: e.Op, L: l, R: r}, nil
	default:
		return e, nil
	}
}

// rewriteExpr qualifies every column reference in an expression.
func (b *binder) rewriteExpr(e expr.Expr) (expr.Expr, error) {
	switch e := e.(type) {
	case expr.Col:
		q, err := b.resolve(e.Name)
		if err != nil {
			return nil, err
		}
		return expr.Col{Name: q}, nil
	case expr.Bin:
		l, err := b.rewriteExpr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := b.rewriteExpr(e.R)
		if err != nil {
			return nil, err
		}
		return expr.Bin{Op: e.Op, L: l, R: r}, nil
	default:
		return e, nil
	}
}

func sameColumns(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
