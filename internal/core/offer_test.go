package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"dqo/internal/datagen"
	"dqo/internal/exec"
	"dqo/internal/expr"
	"dqo/internal/hashtable"
	"dqo/internal/logical"
	"dqo/internal/naive"
	"dqo/internal/physical"
	"dqo/internal/storage"
)

// fkGroupQuery is the Figure-5 statement over a generated FK pair.
func fkGroupQuery(cfg datagen.FKConfig) (q logical.Node, r, s *storage.Relation) {
	r, s = datagen.FKPair(9, cfg)
	return &logical.GroupBy{
		Input: &logical.Join{
			Left: &logical.Scan{Table: "R", Rel: r}, Right: &logical.Scan{Table: "S", Rel: s},
			LeftKey: "ID", RightKey: "R_ID",
		},
		Key: "A", Aggs: []expr.AggSpec{{Func: expr.AggCount}},
	}, r, s
}

// oneIndex is an IndexProvider holding a single prebuilt index.
type oneIndex struct {
	table, column string
	idx           physical.RowIndex
	sph           bool
}

func (o *oneIndex) Index(table, column string) (PrebuiltIndex, bool) {
	return o, table == o.table && column == o.column
}
func (o *oneIndex) Serve(int) physical.RowIndex { return o.idx }
func (o *oneIndex) Label() string               { return "av:test(" + o.table + "." + o.column + ")" }
func (o *oneIndex) SPH() bool                   { return o.sph }
func (o *oneIndex) Hash() hashtable.Func        { return hashtable.Murmur3Fin }

// TestIndexUnderEitherInput: the exact DP and the greedy tier find a prebuilt
// index under the right input as they always found one under the left — the
// commuted join, probed with the left input, output in the left's order —
// and charge it the probe alone. With R sorted and S not, the deep plan
// builds on S to keep R's order for OG: under the paper's model the join
// drops from |S| + 4·|R| + the build to 4·|R|.
func TestIndexUnderEitherInput(t *testing.T) {
	q, r, s := fkGroupQuery(datagen.FKConfig{RRows: 5000, SRows: 22500, AGroups: 5000, RSorted: true})
	m, err := hashtable.BuildMulti(hashtable.Murmur3Fin, s.MustColumn("R_ID").Uint32s(), nil)
	if err != nil {
		t.Fatal(err)
	}
	right := &oneIndex{table: "S", column: "R_ID", idx: m}

	plain := optimize(t, q, DQO())
	if got := plain.Best.Cost; got != 132500 { // OG 22 500 + HJ 22 500·4 + 5 000·4
		t.Fatalf("plain plan costs %v, want 132500:\n%s", got, plain.Best.Explain())
	}
	want, err := Execute(plain.Best)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{DQO(), Greedy()} {
		res := optimize(t, q, mode.WithAVs(nil, right))
		exp := res.Best.Explain()
		if !strings.Contains(exp, "via av:test(S.R_ID) [build right]") {
			t.Fatalf("%s: index under the right input not chosen:\n%s", mode.Name, exp)
		}
		var join *Plan
		res.Best.PreOrder(func(n *Plan, _ int) {
			if n.Op == OpJoin {
				join = n
			}
		})
		if !join.Swapped || join.Index == nil || join.Children[1].Op != OpScan || join.Children[1].Table != "S" {
			t.Fatalf("%s: AV-backed join is not the commuted join over S's bare scan:\n%s", mode.Name, exp)
		}
		if mode.Name == "dqo" && res.Best.Cost != 42500 { // OG 22 500 + probe 4·5 000
			t.Fatalf("plan through the index costs %v, want 42500:\n%s", res.Best.Cost, exp)
		}
		got, err := Execute(res.Best)
		if err != nil {
			t.Fatal(err)
		}
		// Same build side, same probe order: the rows come out alike, not
		// just the same multiset.
		if mode.Name == "dqo" && !got.Equal(want) {
			t.Fatalf("%s: result through the index differs from the fresh build's", mode.Name)
		}
		if !slices.Equal(naive.Rows(got), naive.Rows(want)) {
			t.Fatalf("%s: result through the index differs from the fresh build's", mode.Name)
		}
	}

	// An index under the left input is still found, uncommuted.
	dq, dr, _ := fkGroupQuery(datagen.FKConfig{RRows: 5000, SRows: 22500, AGroups: 50, Dense: true})
	d, err := hashtable.BuildSPH(dr.MustColumn("ID").Uint32s(), 0, dr.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := optimize(t, dq, DQO().WithAVs(nil, &oneIndex{table: "R", column: "ID", idx: d, sph: true}))
	if exp := res.Best.Explain(); !strings.Contains(exp, "SPHJ(ID = R_ID) via av:test(R.ID)  (") {
		t.Fatalf("index under the left input not chosen:\n%s", exp)
	}
	_ = r
}

// countingTaker records what a query offers — and, while the table is still
// the query's, how many rows it holds under its own keys — and takes nothing,
// or everything.
type countingTaker struct {
	mu     sync.Mutex
	offers []exec.TableOffer
	rows   []int
	take   bool
}

func (c *countingTaker) OfferTable(o exec.TableOffer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.offers = append(c.offers, o)
	c.rows = append(c.rows, o.Index.CountBatch(o.Keys))
	return c.take
}

// runOffering executes plan with a taker installed, through the spill twins
// when forced.
func runOffering(t *testing.T, plan *Plan, taker exec.TableTaker, spill bool) *storage.Relation {
	t.Helper()
	root, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	ec := exec.NewExecContext(context.Background(), 0, 2)
	ec.Tables = taker
	if spill {
		ec.SetSpill(t.TempDir(), 0)
		ec.SetSpillQuota(1)
	}
	out, err := exec.Run(ec, root)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOffersOnlyWholeBaseTableBuilds pins what a join offers: the table of an
// in-memory HJ or SPHJ, serial or parallel, built over the unfiltered scan of
// a plain base table of at least a morsel of rows — with the very key column
// it was built over — and nothing else: not a filtered build side, not a
// build under one morsel, not a spill twin or its partition joins, not a join
// that probes a prebuilt index.
func TestOffersOnlyWholeBaseTableBuilds(t *testing.T) {
	big := datagen.FKConfig{RRows: 5000, SRows: 22500, AGroups: 5000, RSorted: true}
	q, _, s := fkGroupQuery(big)

	// Eligible: DQO builds on S (see TestIndexUnderEitherInput).
	taker := &countingTaker{}
	plan := optimize(t, q, DQO()).Best
	want := runOffering(t, plan, taker, false)
	if len(taker.offers) != 1 {
		t.Fatalf("%d offers from one eligible join, want 1:\n%s", len(taker.offers), plan.Explain())
	}
	keys := s.MustColumn("R_ID").Uint32s()
	builtOverS := func(name string, taker *countingTaker) {
		t.Helper()
		o := taker.offers[0]
		if o.Column != "R_ID" || o.SPH || len(o.Keys) != len(keys) || unsafe.SliceData(o.Keys) != unsafe.SliceData(keys) ||
			o.Bytes != hashtable.MultiBytes(len(keys)) || taker.rows[0] < len(keys) {
			t.Fatalf("%s: offer %+v does not describe the table built over S.R_ID in place", name, o)
		}
	}
	builtOverS("serial build", taker)
	// A taken table is the taker's: later builds do not disturb it, and the
	// join's result is what it was.
	taker = &countingTaker{take: true}
	if got := runOffering(t, plan, taker, false); !got.Equal(want) {
		t.Fatal("result changed when the table was taken")
	}
	taken := taker.offers[0].Index
	before := taken.CountBatch(keys)
	runOffering(t, plan, &countingTaker{}, false)
	runOffering(t, plan, &countingTaker{}, false)
	if taken.CountBatch(keys) != before || before < len(keys) {
		t.Fatal("a taken table was recycled by a later build")
	}

	none := func(name string, plan *Plan, spill bool) {
		t.Helper()
		taker := &countingTaker{}
		for i := 0; i < 2; i++ {
			runOffering(t, plan, taker, spill)
		}
		if len(taker.offers) != 0 {
			t.Fatalf("%s: %d offers, want none:\n%s", name, len(taker.offers), plan.Explain())
		}
	}

	// Filtered build side (either side filtered, so whichever builds).
	join := q.(*logical.GroupBy).Input.(*logical.Join)
	filtered := &logical.GroupBy{Key: "A", Aggs: []expr.AggSpec{{Func: expr.AggCount}}, Input: &logical.Join{
		Left:    &logical.Filter{Input: join.Left, Pred: expr.Bin{Op: expr.OpGe, L: expr.Col{Name: "A"}, R: expr.IntLit{V: 0}}},
		Right:   &logical.Filter{Input: join.Right, Pred: expr.Bin{Op: expr.OpGe, L: expr.Col{Name: "M"}, R: expr.IntLit{V: 0}}},
		LeftKey: "ID", RightKey: "R_ID",
	}}
	none("filtered build", optimize(t, filtered, DQO()).Best, false)

	// Under one morsel.
	small, _, _ := fkGroupQuery(datagen.FKConfig{RRows: 300, SRows: exec.DefaultMorselSize - 1, AGroups: 30, RSorted: true})
	none("build under a morsel", optimize(t, small, DQO()).Best, false)

	// Spill twin, forced onto disk: neither the twin nor its partition joins.
	spilling := DQO()
	spilling.MemBudget, spilling.Spill = 1, true
	twin := optimize(t, q, spilling).Best
	spilledJoin := false
	twin.PreOrder(func(n *Plan, _ int) { spilledJoin = spilledJoin || n.Op == OpJoin && n.Spill })
	if !spilledJoin {
		t.Fatalf("the join was not planned as its spill twin:\n%s", twin.Explain())
	}
	none("spill twin", twin, true)

	// Probing a prebuilt index builds nothing.
	m, err := hashtable.BuildMulti(hashtable.Murmur3Fin, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	none("indexed join", optimize(t, q, DQO().WithAVs(nil, &oneIndex{table: "S", column: "R_ID", idx: m})).Best, false)

	// A parallel HJ builds the same one table and probes it in chunks: it
	// offers that table once, and answers as the serial join does.
	par := optimize(t, q, DQO()).Best
	par.PreOrder(func(n *Plan, _ int) {
		if n.Op == OpJoin {
			n.Join.Opt.Parallel = 2
		}
	})
	taker = &countingTaker{}
	if got := runOffering(t, par, taker, false); !got.Equal(want) {
		t.Fatal("the parallel build's result differs from the serial build's")
	}
	if len(taker.offers) != 1 {
		t.Fatalf("parallel build: %d offers, want 1:\n%s", len(taker.offers), par.Explain())
	}
	builtOverS("parallel build", taker)
}

// TestReplannedJoinOffersNoTable: a join re-planned mid-query runs its
// remainder over intermediates, not base tables, so it offers no table — even
// when the side it builds on is the whole of a table of more than a morsel.
func TestReplannedJoinOffersNoTable(t *testing.T) {
	q, _, _ := fkGroupQuery(datagen.FKConfig{RRows: 5000, SRows: 22500, AGroups: 5000, RSorted: true})
	// S keeps every row through a filter estimated to keep a third of them,
	// so the join re-plans on its true inputs.
	join := q.(*logical.GroupBy).Input.(*logical.Join)
	join.Right = &logical.Filter{Input: join.Right, Pred: expr.Bin{Op: expr.OpGe, L: expr.Col{Name: "M"}, R: expr.IntLit{V: 0}}}
	want, err := naive.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	plan := optimize(t, q, DQO()).Best
	rc := &ReoptConfig{Mode: DQO(), Threshold: 1.0001}
	root, err := CompileReopt(plan, rc)
	if err != nil {
		t.Fatal(err)
	}
	taker := &countingTaker{take: true}
	ec := exec.NewExecContext(context.Background(), 0, 2)
	ec.Tables = taker
	got, err := exec.Run(ec, root)
	if err != nil {
		t.Fatal(err)
	}
	if err := naive.Check(got, want, "", -1); err != nil {
		t.Fatal(err)
	}
	evs := rc.Events()
	if len(evs) == 0 || !strings.Contains(evs[0].Operator, "J(") {
		t.Fatalf("the join was not re-planned (splices %v):\n%s", evs, plan.Explain())
	}
	if len(taker.offers) != 0 {
		t.Fatalf("a re-planned remainder offered %d tables: %v", len(taker.offers), evs)
	}
}
