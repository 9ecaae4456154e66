package main

import (
	"fmt"
	"sort"
	"strings"
)

// expect is what a correct execution of one (statement, arguments) pair
// returns: the row count, an order-independent checksum over all cells, and
// whether the first output column must come back non-decreasing.
type expect struct {
	rows    int
	sum     uint64
	ordered bool
}

// mix is the 64-bit finaliser of splitmix; rowSum chains it over a row so that
// swapping two cells, or moving a value to another row, changes the sum.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rowSum(cells []int64) uint64 {
	h := uint64(len(cells))
	for _, c := range cells {
		h = mix(h ^ uint64(c))
	}
	return h
}

// reference evaluates q naively over the benchmark's own table copies:
// nested map lookups for joins, a map of accumulators for grouping, a slice
// sort for ORDER BY. It touches no engine package.
func reference(tables map[string]*table, q *query, args []int64) (expect, error) {
	// A tuple is one row index per table in scope.
	scope := []*table{tables[q.from]}
	if scope[0] == nil {
		return expect{}, fmt.Errorf("reference: unknown table %q", q.from)
	}
	resolve := func(name string) (int, column, error) {
		tn, cn, ok := strings.Cut(name, ".")
		for i, t := range scope {
			if !ok {
				for _, c := range t.cols {
					if c.name == name {
						return i, c, nil
					}
				}
			} else if t.name == tn {
				return i, t.col(cn), nil
			}
		}
		return 0, column{}, fmt.Errorf("reference: cannot resolve column %q", name)
	}

	// Tuples are stored flat: width row indexes per tuple, one per table in
	// scope, in scope order.
	width := 1
	tuples := make([]int32, scope[0].rows())
	for i := range tuples {
		tuples[i] = int32(i)
	}
	for _, j := range q.joins {
		nt := tables[j.table]
		if nt == nil {
			return expect{}, fmt.Errorf("reference: unknown table %q", j.table)
		}
		li, lc, err := resolve(j.left)
		if err != nil {
			return expect{}, err
		}
		scope = append(scope, nt)
		_, rc, err := resolve(j.right)
		if err != nil {
			return expect{}, err
		}
		index := make(map[int64][]int32)
		for r := 0; r < nt.rows(); r++ {
			index[rc.at(r)] = append(index[rc.at(r)], int32(r))
		}
		var next []int32
		for t := 0; t < len(tuples); t += width {
			tup := tuples[t : t+width]
			for _, r := range index[lc.at(int(tup[li]))] {
				next = append(append(next, tup...), r)
			}
		}
		tuples, width = next, width+1
	}

	for _, p := range q.where {
		ti, c, err := resolve(p.col)
		if err != nil {
			return expect{}, err
		}
		lit := p.lit
		if p.arg >= 0 {
			lit = args[p.arg]
		}
		kept := 0
		for t := 0; t < len(tuples); t += width {
			v := c.at(int(tuples[t+ti]))
			var ok bool
			switch p.op {
			case "=":
				ok = v == lit
			case "<":
				ok = v < lit
			case "<=":
				ok = v <= lit
			case ">":
				ok = v > lit
			case ">=":
				ok = v >= lit
			default:
				return expect{}, fmt.Errorf("reference: unknown operator %q", p.op)
			}
			if ok {
				copy(tuples[kept:kept+width], tuples[t:t+width])
				kept += width
			}
		}
		tuples = tuples[:kept]
	}

	// source is where one output value of a tuple comes from.
	type source struct {
		ti int
		c  column
	}
	var out [][]int64
	if q.groupBy != "" {
		ki, kc, err := resolve(q.groupBy)
		if err != nil {
			return expect{}, err
		}
		srcs := make([]source, len(q.aggs))
		for i, a := range q.aggs {
			if a.fn == "SUM" {
				ti, c, err := resolve(a.col)
				if err != nil {
					return expect{}, err
				}
				srcs[i] = source{ti, c}
			}
		}
		groups := make(map[int64][]int64)
		for t := 0; t < len(tuples); t += width {
			k := kc.at(int(tuples[t+ki]))
			acc := groups[k]
			if acc == nil {
				acc = make([]int64, len(q.aggs))
				groups[k] = acc
			}
			for i, a := range q.aggs {
				if a.fn == "COUNT" {
					acc[i]++
				} else {
					acc[i] += srcs[i].c.at(int(tuples[t+srcs[i].ti]))
				}
			}
		}
		for k, acc := range groups {
			row := make([]int64, 0, len(q.sel)+len(acc))
			for range q.sel { // only the grouping key may be selected plain
				row = append(row, k)
			}
			out = append(out, append(row, acc...))
		}
	} else {
		srcs := make([]source, len(q.sel))
		for i, s := range q.sel {
			ti, c, err := resolve(s)
			if err != nil {
				return expect{}, err
			}
			srcs[i] = source{ti, c}
		}
		for t := 0; t < len(tuples); t += width {
			row := make([]int64, len(srcs))
			for i, s := range srcs {
				row[i] = s.c.at(int(tuples[t+s.ti]))
			}
			out = append(out, row)
		}
	}

	want := expect{ordered: q.orderBy != ""}
	if q.orderBy != "" {
		if len(q.sel) == 0 || q.orderBy != q.sel[0] {
			return expect{}, fmt.Errorf("reference: ORDER BY %s must be the first output column", q.orderBy)
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	}
	if q.limit >= 0 && len(out) > q.limit {
		if q.orderBy == "" {
			return expect{}, fmt.Errorf("reference: LIMIT without ORDER BY has no defined rows")
		}
		if out[q.limit][0] == out[q.limit-1][0] {
			return expect{}, fmt.Errorf("reference: LIMIT %d cuts through equal %s keys", q.limit, q.orderBy)
		}
		out = out[:q.limit]
	}
	want.rows = len(out)
	for _, row := range out {
		want.sum += rowSum(row)
	}
	return want, nil
}

// A resultSet is the engine's answer in the reference's terms.
type resultSet struct {
	rows int
	cols []column
}

// check compares an answer with the expectation. The row count is always
// compared; the checksum and the ordering only when full is set.
func (e expect) check(got resultSet, full bool) error {
	if got.rows != e.rows {
		return fmt.Errorf("row count %d, want %d", got.rows, e.rows)
	}
	if !full {
		return nil
	}
	var sum uint64
	cells := make([]int64, len(got.cols))
	for r := 0; r < got.rows; r++ {
		for c := range got.cols {
			cells[c] = got.cols[c].at(r)
		}
		sum += rowSum(cells)
		if e.ordered && r > 0 && got.cols[0].at(r) < got.cols[0].at(r-1) {
			return fmt.Errorf("row %d breaks ORDER BY (%d after %d)", r, got.cols[0].at(r), got.cols[0].at(r-1))
		}
	}
	if sum != e.sum {
		return fmt.Errorf("checksum %016x, want %016x", sum, e.sum)
	}
	return nil
}
