package physical

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dqo/internal/expr"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// The kernel differential test: every grouping kernel and hash function,
// over every shape of aggregate list and a set of inputs chosen for their
// edges, against a naive map reference — values and group order. The order
// contract of each kernel is part of what a query returns:
//
//	HG              first-seen order of the keys
//	SPHG, SOG, BSG  ascending
//	OG              run order
//
// and a kernel's Parallel variants return the serial result byte for byte.

// diffInput is one input of the grid: a key column and two argument columns.
type diffInput struct {
	name string
	keys []uint32
	v, w []int64
}

func diffInputs() []diffInput {
	gen := func(name string, n int, key func(r *xrand.Rand, i int) uint32, val func(r *xrand.Rand, i int) int64) diffInput {
		r := xrand.New(uint64(len(name))*1000003 + uint64(n))
		in := diffInput{name: name, keys: make([]uint32, n), v: make([]int64, n), w: make([]int64, n)}
		for i := 0; i < n; i++ {
			in.keys[i] = key(r, i)
			in.v[i] = val(r, i)
			in.w[i] = int64(i%23) - 11
		}
		return in
	}
	small := func(r *xrand.Rand, _ int) int64 { return int64(r.Uint64n(2000)) - 1000 }
	distinct := make([]uint32, 5000)
	for i := range distinct {
		distinct[i] = uint32(i)*3 + 1
	}
	xrand.New(9).ShuffleUint32(distinct)
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	return []diffInput{
		gen("empty", 0, nil, nil),
		gen("one-row", 1, func(*xrand.Rand, int) uint32 { return 7 }, small),
		gen("one-group", 3000, func(*xrand.Rand, int) uint32 { return 5 }, small),
		gen("all-distinct", len(distinct), func(_ *xrand.Rand, i int) uint32 { return distinct[i] }, small),
		gen("groups-20k", 60000, func(r *xrand.Rand, _ int) uint32 { return r.Uint32n(20000)*7 + 3 }, small),
		gen("negative", 4000, func(r *xrand.Rand, _ int) uint32 { return 100 + r.Uint32n(50) },
			func(r *xrand.Rand, _ int) int64 { return -1 - int64(r.Uint64n(1000)) }),
		gen("extremes", 2000, func(r *xrand.Rand, _ int) uint32 { return r.Uint32n(20) * 11 },
			func(r *xrand.Rand, _ int) int64 { return extremes[r.Uint64n(uint64(len(extremes)))] }),
		gen("sum-wrap", 1000, func(r *xrand.Rand, _ int) uint32 { return r.Uint32n(4) },
			func(r *xrand.Rand, _ int) int64 { return math.MaxInt64 - int64(r.Uint64n(3)) }),
	}
}

// firstSeen lists the distinct keys in the order they first occur.
func firstSeen(keys []uint32) []uint32 {
	seen := map[uint32]bool{}
	var order []uint32
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	return order
}

// grouped returns in's rows stably rearranged so that equal keys are
// adjacent, runs in first-seen order: OG's input.
func (in diffInput) grouped() diffInput {
	rank := map[uint32]int{}
	for i, k := range firstSeen(in.keys) {
		rank[k] = i
	}
	rows := make([]int, len(in.keys))
	for i := range rows {
		rows[i] = i
	}
	slices.SortStableFunc(rows, func(a, b int) int { return rank[in.keys[a]] - rank[in.keys[b]] })
	out := diffInput{name: in.name, keys: make([]uint32, len(rows)), v: make([]int64, len(rows)), w: make([]int64, len(rows))}
	for i, r := range rows {
		out.keys[i], out.v[i], out.w[i] = in.keys[r], in.v[r], in.w[r]
	}
	return out
}

func (in diffInput) relation() *storage.Relation {
	return storage.MustNewRelation("t", storage.NewUint32("k", in.keys), storage.NewInt64("v", in.v), storage.NewInt64("w", in.w))
}

// diffAggLists are the shapes of aggregate list: which states the kernel
// keeps (count-only, narrow, wide, one of each) and what is read out of them.
var diffAggLists = []struct {
	name string
	aggs []expr.AggSpec
}{
	{"count", []expr.AggSpec{{Func: expr.AggCount}}},
	{"count+sum", []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "v"}}},
	{"min+max", []expr.AggSpec{{Func: expr.AggMin, Col: "v"}, {Func: expr.AggMax, Col: "v"}}},
	{"avg", []expr.AggSpec{{Func: expr.AggAvg, Col: "v"}}},
	{"two-columns", []expr.AggSpec{{Func: expr.AggSum, Col: "v"}, {Func: expr.AggMax, Col: "w"}, {Func: expr.AggSum, Col: "w"}}},
	{"count-column", []expr.AggSpec{{Func: expr.AggCount, Col: "v"}, {Func: expr.AggCount}}},
}

// reference computes the expected output columns of aggs over in with a map,
// one row per entry of order.
func reference(in diffInput, aggs []expr.AggSpec, order []uint32) []*storage.Column {
	type state struct{ count, sum, min, max int64 }
	fold := func(vals []int64) map[uint32]state {
		m := map[uint32]state{}
		for i, k := range in.keys {
			st, ok := m[k]
			if !ok {
				st.min, st.max = vals[i], vals[i]
			}
			st.count++
			st.sum += vals[i]
			st.min, st.max = min(st.min, vals[i]), max(st.max, vals[i])
			m[k] = st
		}
		return m
	}
	byCol := map[string]map[uint32]state{"": fold(in.v), "v": fold(in.v), "w": fold(in.w)}
	cols := []*storage.Column{storage.NewUint32("k", order)}
	for _, a := range aggs {
		ints, floats := make([]int64, len(order)), make([]float64, len(order))
		for i, k := range order {
			st := byCol[a.Col][k]
			switch a.Func {
			case expr.AggCount:
				ints[i] = st.count
			case expr.AggSum:
				ints[i] = st.sum
			case expr.AggMin:
				ints[i] = st.min
			case expr.AggMax:
				ints[i] = st.max
			case expr.AggAvg:
				floats[i] = float64(st.sum) / float64(st.count)
			}
		}
		if a.Func == expr.AggAvg {
			cols = append(cols, storage.NewFloat64(a.OutName(), floats))
		} else {
			cols = append(cols, storage.NewInt64(a.OutName(), ints))
		}
	}
	return cols
}

// sameRelation fails unless got has exactly want's columns — names, kinds
// and values in order — and publishes ground-truth statistics on its key.
func sameRelation(t *testing.T, label string, got *storage.Relation, want []*storage.Column) {
	t.Helper()
	if got.NumCols() != len(want) {
		t.Fatalf("%s: %d output columns, want %d", label, got.NumCols(), len(want))
	}
	for i, w := range want {
		g := got.Columns()[i]
		if g.Name() != w.Name() || !g.Equal(w) {
			t.Fatalf("%s: output column %d (%s) differs from the reference's %s", label, i, g.Name(), w.Name())
		}
	}
	keys := want[0].Uint32s()
	st := got.Columns()[0].Stats()
	wantSt := storage.Stats{Rows: len(keys), Distinct: len(keys), Sorted: slices.IsSorted(keys), Exact: true, Dense: true}
	if len(keys) > 0 {
		wantSt.Min, wantSt.Max = uint64(slices.Min(keys)), uint64(slices.Max(keys))
		wantSt.Dense = uint64(len(keys)) == wantSt.Max-wantSt.Min+1
	}
	if st != wantSt {
		t.Fatalf("%s: key statistics %+v, want %+v", label, st, wantSt)
	}
}

func TestGroupKernelsAgainstMapReference(t *testing.T) {
	type config struct {
		name string
		kind GroupKind
		opt  GroupOptions
	}
	var configs []config
	for _, f := range hashtable.Funcs() {
		configs = append(configs, config{fmt.Sprintf("HG/%s", f), HG, GroupOptions{Hash: f}})
	}
	for _, k := range []GroupKind{SPHG, OG, SOG, BSG} {
		configs = append(configs, config{k.String(), k, GroupOptions{}})
	}
	for _, base := range diffInputs() {
		for _, c := range configs {
			in := base
			if c.kind == OG {
				in = base.grouped()
			}
			rel := in.relation()
			dom := domainOf(rel, "k")
			if c.kind == SPHG { // any dense superset of the keys is a legal SPH domain
				dom = props.Domain{Known: true, Dense: true, Lo: 0, Hi: 150000, Distinct: 150001}
			}
			order := firstSeen(in.keys)
			if c.kind != HG && c.kind != OG {
				slices.Sort(order)
			}
			for _, al := range diffAggLists {
				want := reference(in, al.aggs, order)
				label := fmt.Sprintf("%s/%s/%s", in.name, c.name, al.name)
				serial, err := GroupByRel(rel, "k", al.aggs, c.kind, c.opt, dom)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameRelation(t, label, serial, want)
				for _, dop := range []int{2, 4} {
					opt := c.opt
					opt.Parallel = dop
					par, err := GroupByRel(rel, "k", al.aggs, c.kind, opt, dom)
					if err != nil {
						t.Fatalf("%s dop %d: %v", label, dop, err)
					}
					sameRelation(t, fmt.Sprintf("%s dop %d", label, dop), par, want)
				}
			}
		}
	}
}

// TestGroupArgumentKinds: an unsigned argument column is read through a
// block-sized widening window, whatever the kernel; the results are those of
// the same values stored as int64.
func TestGroupArgumentKinds(t *testing.T) {
	in := diffInputs()[4].grouped() // grouped, so that OG applies too
	u32, u64, i64 := make([]uint32, len(in.keys)), make([]uint64, len(in.keys)), make([]int64, len(in.keys))
	for i := range u32 {
		u32[i] = uint32(i) * 2654435761
		u64[i] = uint64(u32[i]) << 20
		i64[i] = int64(u32[i])
	}
	key := storage.NewUint32("k", in.keys)
	aggs := func(col string) []expr.AggSpec {
		return []expr.AggSpec{{Func: expr.AggSum, Col: col, As: "s"}, {Func: expr.AggMin, Col: col, As: "lo"}, {Func: expr.AggAvg, Col: col, As: "avg"}}
	}
	dom := props.Domain{Known: true, Dense: true, Lo: 0, Hi: 150000, Distinct: 150001}
	for _, kind := range GroupKinds() {
		want, err := GroupByRel(storage.MustNewRelation("t", key, storage.NewInt64("x", i64)), "k", aggs("x"), kind, GroupOptions{}, dom)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GroupByRel(storage.MustNewRelation("t", key, storage.NewUint32("x", u32)), "k", aggs("x"), kind, GroupOptions{}, dom)
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, kind.String()+"/uint32", got, want.Columns())
		wide, err := GroupByRel(storage.MustNewRelation("t", key, storage.NewUint64("x", u64)), "k", aggs("x")[:1], kind, GroupOptions{}, dom)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range want.MustColumn("s").Int64s() {
			if wide.MustColumn("s").Int64s()[i] != s<<20 {
				t.Fatalf("%s/uint64: group %d sums to %d, want %d", kind, i, wide.MustColumn("s").Int64s()[i], s<<20)
			}
		}
	}
}
