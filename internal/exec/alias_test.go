package exec

import (
	"context"
	"fmt"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// snapshot deep-copies a relation's column data, for before/after checks.
func snapshot(rel *storage.Relation) *storage.Relation {
	idx := make([]int32, rel.NumRows())
	for i := range idx {
		idx[i] = int32(i)
	}
	return rel.Gather(idx)
}

// aliasesTable reports whether in is a zero-copy view of the first rows of
// table: every column's first element is the table's own.
func aliasesTable(in, table *storage.Relation) bool {
	if in.NumRows() == 0 {
		return false
	}
	for _, c := range table.Columns() {
		ic, ok := in.Column(c.Name())
		if !ok {
			return false
		}
		switch c.Kind() {
		case storage.KindUint32, storage.KindString:
			if &ic.Uint32s()[0] != &c.Uint32s()[0] {
				return false
			}
		case storage.KindInt64:
			if &ic.Int64s()[0] != &c.Int64s()[0] {
				return false
			}
		}
	}
	return true
}

// TestBreakersDoNotWriteTheirInputs: a breaker over a Scan drains to a view
// of the scanned table (no copy), so every whole-relation kernel must leave
// its input untouched. Runs every grouping, join and sort kernel through a
// breaker over multi-morsel scans and checks the tables bit for bit
// afterwards.
func TestBreakersDoNotWriteTheirInputs(t *testing.T) {
	r, s := datagen.FKPair(21, datagen.FKConfig{RRows: 3000, SRows: 9000, AGroups: 60, Dense: true, RSorted: true, SSorted: true})
	g := datagen.GroupingRelation(22, 9000, 50, datagen.Quadrant{Sorted: true, Dense: true})
	tables := []*storage.Relation{r, s, g}
	var before []*storage.Relation
	for _, tab := range tables {
		before = append(before, snapshot(tab))
	}
	const morsel = 1000

	sawView := func(in, table *storage.Relation) {
		t.Helper()
		if !aliasesTable(in, table) {
			t.Fatalf("breaker input over Scan(%s) is a copy, not a view", table.Name())
		}
	}
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}, {Func: expr.AggMin, Col: "key"}}
	for _, kind := range physical.GroupKinds() {
		for _, dop := range []int{1, 4} {
			runTree(t, NewBreaker(Text("group"), func(_ *ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
				sawView(in[0], g)
				return physical.GroupByRel(in[0], "key", aggs, kind, physical.GroupOptions{Parallel: dop, Ctl: ctl}, props.Domain{})
			}, nil, NewScan(Text("g"), g)), morsel)
		}
	}
	for _, kind := range physical.JoinKinds() {
		for _, dop := range []int{1, 4} {
			for _, swapped := range []bool{false, true} {
				if swapped && kind == physical.SPHJ {
					continue // S.R_ID is not a dense build key
				}
				runTree(t, NewBreaker(Text("join"), func(_ *ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
					sawView(in[0], r)
					sawView(in[1], s)
					opt := physical.JoinOptions{Parallel: dop, Ctl: ctl}
					return physical.JoinRel(in[0], in[1], "ID", "R_ID", kind, opt, props.Domain{}, swapped, nil, nil)
				}, nil, NewScan(Text("r"), r), NewScan(Text("s"), s)), morsel)
			}
		}
	}
	for _, kind := range sortx.Kinds() {
		for _, dop := range []int{1, 4} {
			runTree(t, NewBreaker(Text("sort"), func(_ *ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
				sawView(in[0], s)
				return physical.SortRel(in[0], "R_ID", kind, dop, ctl)
			}, nil, NewScan(Text("s"), s)), morsel)
		}
	}
	for i, tab := range tables {
		if !tab.Equal(before[i]) {
			t.Fatalf("table %s changed under the kernels", tab.Name())
		}
	}
}

// BenchmarkDrainScan prices a breaker materialising a 300 k-row, two-column
// scan (the repository benchmark's quadrant tables): the input arrives as 74
// morsels and is handed to the kernel as one view of the table, so the
// column data moved per op — reported as column_B/op — is zero; what B/op
// remains is the per-morsel relation headers.
func BenchmarkDrainScan(b *testing.B) {
	rel := datagen.GroupingRelation(42, 300000, 20000, datagen.Quadrant{})
	var copied int64
	kernel := func(_ *ExecContext, _ *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
		if in[0].NumRows() != rel.NumRows() {
			return nil, fmt.Errorf("drained %d rows, want %d", in[0].NumRows(), rel.NumRows())
		}
		if !aliasesTable(in[0], rel) {
			copied += in[0].MemBytes()
		}
		return in[0].Slice(0, 0), nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ec := NewExecContext(context.Background(), 0, 1)
		if _, err := Run(ec, NewBreaker(Text("drain"), kernel, nil, NewScan(Text("scan"), rel))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(copied)/float64(b.N), "column_B/op")
}
