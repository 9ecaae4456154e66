// Package naive is the test oracle: it evaluates a bound logical plan with the
// dumbest correct algorithms (nested-loop join, map grouping, stable sort) and
// shares no planner, kernel or executor with the engine, so a kernel bug cannot
// agree with itself. Check compares an engine result with its answer.
package naive

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/storage"
)

// key is a row's key value: strings by value, every other key kind by its
// order-preserving uint64 key. Dictionary codes of two tables are not
// comparable, their strings are.
type key struct {
	s string
	u uint64
}

func keyAt(c *storage.Column, i int) key {
	if c.Kind() == storage.KindString {
		return key{s: c.ValueAt(i).S}
	}
	return key{u: c.KeyAt(i)}
}

func (a key) compare(b key) int {
	if c := strings.Compare(a.s, b.s); c != 0 {
		return c
	}
	return cmp.Compare(a.u, b.u)
}

func column(rel *storage.Relation, name string) (*storage.Column, error) {
	c, ok := rel.Column(name)
	if !ok {
		return nil, fmt.Errorf("naive: no column %q in %v", name, rel.ColumnNames())
	}
	return c, nil
}

// Execute evaluates n.
func Execute(n logical.Node) (*storage.Relation, error) {
	switch n := n.(type) {
	case *logical.Scan:
		return n.Rel, nil
	case *logical.Filter:
		in, err := Execute(n.Input)
		if err != nil {
			return nil, err
		}
		keep, err := expr.EvalPredicate(n.Pred, in)
		if err != nil {
			return nil, err
		}
		var idx []int32
		for i, k := range keep {
			if k {
				idx = append(idx, int32(i))
			}
		}
		return in.Gather(nil, idx), nil
	case *logical.Project:
		in, err := Execute(n.Input)
		if err != nil {
			return nil, err
		}
		return in.Project(n.Cols...)
	case *logical.Sort:
		in, err := Execute(n.Input)
		if err != nil {
			return nil, err
		}
		col, err := column(in, n.Key)
		if err != nil {
			return nil, err
		}
		idx := make([]int32, in.NumRows())
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return keyAt(col, int(idx[a])).compare(keyAt(col, int(idx[b]))) < 0
		})
		return in.Gather(nil, idx), nil
	case *logical.Join:
		return join(n)
	case *logical.GroupBy:
		return group(n)
	default:
		return nil, fmt.Errorf("naive: unknown node %T", n)
	}
}

// join pairs every left row with every right row of an equal key; right
// columns whose names clash are suffixed "_r".
func join(n *logical.Join) (*storage.Relation, error) {
	left, err := Execute(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := Execute(n.Right)
	if err != nil {
		return nil, err
	}
	lc, err := column(left, n.LeftKey)
	if err != nil {
		return nil, err
	}
	rc, err := column(right, n.RightKey)
	if err != nil {
		return nil, err
	}
	rk := make([]key, right.NumRows())
	for j := range rk {
		rk[j] = keyAt(rc, j)
	}
	var li, ri []int32
	for i := 0; i < left.NumRows(); i++ {
		lk := keyAt(lc, i)
		for j := range rk {
			if lk == rk[j] {
				li = append(li, int32(i))
				ri = append(ri, int32(j))
			}
		}
	}
	cols := left.Gather(nil, li).Columns()
	used := map[string]bool{}
	for _, c := range cols {
		used[c.Name()] = true
	}
	for _, c := range right.Gather(nil, ri).Columns() {
		name := c.Name()
		if used[name] {
			name += "_r"
		}
		used[name] = true
		cols = append(cols, c.Rename(name))
	}
	return storage.NewRelation("naive_join", cols...)
}

// group collects each key's rows in a map and aggregates them one group at a
// time. The key column is gathered from each group's first row, so its kind
// (and a string column's dictionary) survives.
func group(n *logical.GroupBy) (*storage.Relation, error) {
	in, err := Execute(n.Input)
	if err != nil {
		return nil, err
	}
	keyCol, err := column(in, n.Key)
	if err != nil {
		return nil, err
	}
	rows := map[key][]int32{}
	var keys []key
	for i := 0; i < in.NumRows(); i++ {
		k := keyAt(keyCol, i)
		if rows[k] == nil {
			keys = append(keys, k)
		}
		rows[k] = append(rows[k], int32(i))
	}
	slices.SortFunc(keys, key.compare)
	first := make([]int32, len(keys))
	for g, k := range keys {
		first[g] = rows[k][0]
	}
	cols := []*storage.Column{keyCol.Gather(nil, first)}
	for _, a := range n.Aggs {
		var vals []int64
		if a.Col != "" {
			if vals, err = int64s(in, a.Col); err != nil {
				return nil, err
			}
		}
		out := make([]int64, len(keys))
		avg := make([]float64, len(keys))
		for g, k := range keys {
			rs := rows[k]
			if a.Func == expr.AggCount {
				out[g] = int64(len(rs))
				continue
			}
			lo, hi, sum := vals[rs[0]], vals[rs[0]], int64(0)
			for _, r := range rs {
				lo, hi, sum = min(lo, vals[r]), max(hi, vals[r]), sum+vals[r]
			}
			switch a.Func {
			case expr.AggSum:
				out[g] = sum
			case expr.AggMin:
				out[g] = lo
			case expr.AggMax:
				out[g] = hi
			case expr.AggAvg:
				avg[g] = float64(sum) / float64(len(rs))
			}
		}
		if a.Func == expr.AggAvg {
			cols = append(cols, storage.NewFloat64(a.OutName(), avg))
		} else {
			cols = append(cols, storage.NewInt64(a.OutName(), out))
		}
	}
	return storage.NewRelation("naive_group", cols...)
}

// int64s reads an integer column's values as int64.
func int64s(rel *storage.Relation, name string) ([]int64, error) {
	c, err := column(rel, name)
	if err != nil {
		return nil, err
	}
	out := make([]int64, c.Len())
	for i := range out {
		switch v := c.ValueAt(i); v.Kind {
		case storage.KindInt64, storage.KindUint32, storage.KindUint64:
			out[i] = int64(v.U)
		default:
			return nil, fmt.Errorf("naive: cannot aggregate %s column %q", c.Kind(), name)
		}
	}
	return out, nil
}

// SortKey returns the column a bound query's result is ordered by: the key of
// the Sort at its root, under a projection that keeps the key; "" when the
// order is unspecified.
func SortKey(n logical.Node) string {
	switch n := n.(type) {
	case *logical.Project:
		if key := SortKey(n.Input); slices.Contains(n.Cols, key) {
			return key
		}
	case *logical.Sort:
		return n.Key
	}
	return ""
}

// Rows renders a relation as its sorted multiset of rows.
func Rows(r *storage.Relation) []string {
	rows := make([]string, r.NumRows())
	cols, parts := r.Columns(), make([]string, r.NumCols())
	for i := range rows {
		for j, c := range cols {
			parts[j] = c.ValueAt(i).String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return rows
}

// Check compares an engine result with the oracle's answer want to a query
// whose result is ordered by sortKey ("" = unspecified) and keeps at most
// limit rows (< 0 = all). got must have want's columns and be want's row
// multiset — under a LIMIT, a sub-multiset of the right size — and, when the
// query sorts, want's key sequence. It returns the first difference, or nil.
func Check(got, want *storage.Relation, sortKey string, limit int) error {
	if !slices.Equal(got.ColumnNames(), want.ColumnNames()) {
		return fmt.Errorf("columns %v, oracle %v", got.ColumnNames(), want.ColumnNames())
	}
	n := want.NumRows()
	if limit >= 0 && limit < n {
		n = limit
	}
	if got.NumRows() != n {
		return fmt.Errorf("%d rows, oracle %d", got.NumRows(), n)
	}
	g, w := Rows(got), Rows(want)
	for i, j := 0, 0; i < len(g); i++ {
		for j < len(w) && w[j] < g[i] {
			j++
		}
		if j == len(w) || w[j] != g[i] {
			return fmt.Errorf("row %q is not in the oracle's answer", g[i])
		}
		j++
	}
	if sortKey == "" {
		return nil
	}
	gk, wk := got.MustColumn(sortKey), want.MustColumn(sortKey)
	for i := 0; i < n; i++ {
		if a, b := gk.ValueAt(i).String(), wk.ValueAt(i).String(); a != b {
			return fmt.Errorf("%s = %s at row %d, oracle %s", sortKey, a, i, b)
		}
	}
	return nil
}
