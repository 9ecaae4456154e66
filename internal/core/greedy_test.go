package core

import (
	"context"
	"strings"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/naive"
	"dqo/internal/physical"
	"dqo/internal/storage"
)

// greedyQuery builds the paper's join+group query over a small FK pair.
func greedyQuery(t testing.TB, rSorted, sSorted, dense bool) logical.Node {
	t.Helper()
	cfg := datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200,
		RSorted: rSorted, SSorted: sSorted, Dense: dense}
	r, s := datagen.FKPair(7, cfg)
	return &logical.GroupBy{
		Input: &logical.Join{
			Left:    &logical.Scan{Table: "R", Rel: r},
			Right:   &logical.Scan{Table: "S", Rel: s},
			LeftKey: "ID", RightKey: "R_ID",
		},
		Key:  "A",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}},
	}
}

// TestGreedyMatchesDeepResults: the greedy tier must produce plans whose
// executed results equal full Deep enumeration's, across the property
// quadrants that steer its heuristics (sortedness, density).
func TestGreedyMatchesDeepResults(t *testing.T) {
	for _, c := range []struct{ rSorted, sSorted, dense bool }{
		{true, true, true}, {true, false, true}, {false, false, true}, {false, false, false},
	} {
		q := greedyQuery(t, c.rSorted, c.sSorted, c.dense)
		// Both modes take DOP from GOMAXPROCS; pinned, the alternative
		// counts compared below do not depend on the machine's CPUs.
		deepMode, fastMode := DQOCalibrated(), Greedy()
		deepMode.DOP, fastMode.DOP = 2, 2
		deep, err := Optimize(q, deepMode)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := Optimize(q, fastMode)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(deep.Best)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Execute(fast.Best)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() {
			t.Errorf("%+v: greedy %d rows, deep %d", c, got.NumRows(), want.NumRows())
		}
		// Greedy prices a constant number of candidates per operator; deep
		// enumerates the molecule space. The planning-work gap is the tier's
		// whole point.
		if fast.Stats.Alternatives*10 > deep.Stats.Alternatives {
			t.Errorf("%+v: greedy costed %d alternatives vs deep %d; not a fast tier",
				c, fast.Stats.Alternatives, deep.Stats.Alternatives)
		}
	}
}

// TestGreedyExploitsProperties: on the sorted/sorted dense quadrant the
// greedy pick must land on the order-based join family without enumeration,
// and on the unsorted dense quadrant on the SPH family — the properties pay
// for the granule, one probe confirms it.
func TestGreedyExploitsProperties(t *testing.T) {
	q := greedyQuery(t, true, true, true)
	res, err := Optimize(q, Greedy())
	if err != nil {
		t.Fatal(err)
	}
	join := res.Best.Children[0]
	if join.Op != OpJoin || join.Join.Kind != physical.OJ {
		t.Errorf("sorted/sorted: greedy join = %s, want OJ", join.Join.Label())
	}

	q = greedyQuery(t, false, false, true)
	res, err = Optimize(q, Greedy())
	if err != nil {
		t.Fatal(err)
	}
	join = res.Best.Children[0]
	if join.Op != OpJoin || join.Join.Kind != physical.SPHJ {
		t.Errorf("unsorted dense: greedy join = %s, want SPHJ", join.Join.Label())
	}
}

// TestGreedyProvablyEmpty: a predicate range disjoint from the column's
// exact domain must zero the estimated cardinality without any probing —
// the visible-selectivity early exit.
func TestGreedyProvablyEmpty(t *testing.T) {
	cfg := datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200, Dense: true}
	r, _ := datagen.FKPair(7, cfg)
	// A ranges over [0, 200); A >= 5000 is provably empty.
	q := &logical.Filter{
		Input: &logical.Scan{Table: "R", Rel: r},
		Pred: expr.Bin{Op: expr.OpGe, L: expr.Col{Name: "A"},
			R: expr.IntLit{V: 5000}},
	}
	res, err := Optimize(q, Greedy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Rows != 0 {
		t.Fatalf("provably-empty filter estimated %g rows, want 0", res.Best.Rows)
	}
	out, err := Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("executed %d rows", out.NumRows())
	}
}

// TestGreedyEmptyClaimsHold: every filter of the enumeration corpus, plain
// and compressed, that the greedy tier claims provably empty (planned at 0
// rows) selects no row when the naive evaluator runs it. A range literal
// compared with a domain in another key space (an int64 column's bounds
// have the sign bit flipped) used to make such claims for filters that keep
// half their input.
func TestGreedyEmptyClaimsHold(t *testing.T) {
	mode := Greedy()
	mode.DOP = 1
	claims := 0
	var visit func(n logical.Node)
	visit = func(n logical.Node) {
		for _, c := range n.Children() {
			visit(c)
		}
		f, ok := n.(*logical.Filter)
		if !ok {
			return
		}
		res, err := Optimize(f, mode)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Rows != 0 {
			return
		}
		claims++
		out, err := naive.Execute(f)
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != 0 {
			t.Errorf("greedy claims %s empty; it keeps %d rows", f, out.NumRows())
		}
	}
	for _, compressed := range []bool{false, true} {
		for _, q := range enumQueries(t, compressed) {
			visit(q)
		}
	}
	if claims == 0 {
		t.Fatal("no filter of the corpus is claimed empty: the test checks nothing")
	}
	t.Logf("%d filters claimed empty", claims)
}

// TestBeamPrunesAndMatches: a beam-capped Deep run must keep at most the
// beam width of property-distinct partial plans per site, cost fewer
// alternatives than exact enumeration the narrower the beam, and still
// return correct results.
func TestBeamPrunesAndMatches(t *testing.T) {
	q := greedyQuery(t, true, false, true)
	exact, err := Optimize(q, DQOCalibrated())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(exact.Best)
	if err != nil {
		t.Fatal(err)
	}
	prevAlts := exact.Stats.Alternatives + 1
	for _, k := range []int{8, 2, 1} {
		res, err := Optimize(q, DQOCalibrated().WithBeam(k))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Alternatives > prevAlts {
			t.Errorf("beam=%d costed %d alternatives, more than the wider beam's %d", k, res.Stats.Alternatives, prevAlts)
		}
		prevAlts = res.Stats.Alternatives
		got, err := Execute(res.Best)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() {
			t.Errorf("beam=%d: %d rows, want %d", k, got.NumRows(), want.NumRows())
		}
	}
}

// TestBeamZeroExactPlans: Beam=0 must leave enumeration untouched — the
// chosen plan renders byte-identically to the un-beamed mode's.
func TestBeamZeroExactPlans(t *testing.T) {
	for _, c := range []struct{ rSorted, sSorted, dense bool }{
		{true, true, true}, {false, false, true}, {false, false, false},
	} {
		q := greedyQuery(t, c.rSorted, c.sSorted, c.dense)
		plain, err := Optimize(q, DQOCalibrated())
		if err != nil {
			t.Fatal(err)
		}
		beamed, err := Optimize(q, DQOCalibrated().WithBeam(0))
		if err != nil {
			t.Fatal(err)
		}
		if plain.Best.Explain() != beamed.Best.Explain() {
			t.Errorf("%+v: Beam=0 changed the plan:\nplain:\n%s\nbeamed:\n%s",
				c, plain.Best.Explain(), beamed.Best.Explain())
		}
		if plain.Stats.Alternatives != beamed.Stats.Alternatives {
			t.Errorf("%+v: Beam=0 changed enumeration: %d vs %d alternatives",
				c, plain.Stats.Alternatives, beamed.Stats.Alternatives)
		}
	}
}

// TestRebindSplicesLiterals: Rebind must reuse the template's physical
// structure while the new tree's literals take effect.
func TestRebindSplicesLiterals(t *testing.T) {
	cfg := datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200, Dense: true}
	r, _ := datagen.FKPair(7, cfg)
	filter := func(limit int64) logical.Node {
		return &logical.Filter{
			Input: &logical.Scan{Table: "R", Rel: r},
			Pred: expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "A"},
				R: expr.IntLit{V: limit}},
		}
	}
	cached, err := Optimize(filter(100), DQOCalibrated())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rebind(cached, filter(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Alternatives != 0 {
		t.Fatalf("rebind enumerated %d alternatives", res.Stats.Alternatives)
	}
	out, err := Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	// A < 10 keeps 10 of the 200 dense A values: 10 × (2000/200) rows.
	if out.NumRows() != 100 {
		t.Fatalf("rebound plan returned %d rows, want 100", out.NumRows())
	}
	// The original template must be untouched (structural clone).
	outOld, err := Execute(cached.Best)
	if err != nil {
		t.Fatal(err)
	}
	if outOld.NumRows() != 1000 {
		t.Fatalf("template mutated by rebind: %d rows, want 1000", outOld.NumRows())
	}
}

// TestGreedySpillsOverBudgetBreakers: with spilling armed and a budget
// nothing fits, the greedy tier plans every join, grouping and sort over the
// budget as a disk-backed twin instead of a plan the runtime budget aborts,
// and the twins return the naive evaluator's rows. Without spilling the same
// budget plans no twin.
func TestGreedySpillsOverBudgetBreakers(t *testing.T) {
	twins := 0
	for qi, q := range enumQueries(t, false) {
		want, err := naive.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ExecuteContext(context.Background(), optimize(t, q, Greedy()).Best, ExecOptions{}); err != nil {
			continue // a planning-only shape of the corpus: its sort key is int64
		}
		mode := Greedy()
		mode.DOP, mode.MemBudget = 2, 1
		plain := optimize(t, q, mode)
		mode.Spill = true
		res := optimize(t, q, mode)
		res.Best.PreOrder(func(n *Plan, _ int) {
			switch {
			case n.Spill:
				twins++
			case (n.Op == OpSort || n.Op == OpJoin || n.Op == OpGroup) && n.Mem > 1:
				t.Fatalf("q%d: %s is over the budget and does not spill:\n%s", qi, n.Label(), res.Best.Explain())
			}
		})
		plain.Best.PreOrder(func(n *Plan, _ int) {
			if n.Spill {
				t.Fatalf("q%d: a twin planned without spilling armed:\n%s", qi, plain.Best.Explain())
			}
		})
		got, _, err := ExecuteContext(context.Background(), res.Best, ExecOptions{MorselSize: 512, Workers: 2, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatalf("q%d: %v\n%s", qi, err, res.Best.Explain())
		}
		if err := naive.Check(got, want, naive.SortKey(q), -1); err != nil {
			t.Fatalf("q%d: spilled result differs from the naive evaluator: %v\n%s", qi, err, res.Best.Explain())
		}
	}
	if twins == 0 {
		t.Fatal("no spill twin planned; the test is vacuous")
	}
}

// TestGreedyFittingSiblingDoesNotSpill: a greedy hash grouping over the
// memory budget whose sort-based sibling fits runs that sibling in memory,
// and plans identically with spilling armed or not — the twin is the fallback
// for a pick that fits nowhere, as at a DP site. A greedy hash join has no
// such sibling: it builds on its smaller input, and its table (16 B per build
// row) never needs more than SOJ's sort scratch (8 B per row of both inputs).
func TestGreedyFittingSiblingDoesNotSpill(t *testing.T) {
	// Unique, sparse, unsorted keys: the greedy tier picks hashing, and
	// with a group per row sort-based grouping needs less memory.
	const n = 5000
	keys := func(name string, step int) *storage.Relation {
		k := make([]uint32, n)
		for i := range k {
			k[i] = uint32((i*step)%n) * 1000
		}
		return storage.MustNewRelation(name, storage.NewUint32("K", k))
	}
	l := keys("L", 7919)
	scan := func(rel *storage.Relation) *logical.Scan { return &logical.Scan{Table: rel.Name(), Rel: rel} }
	for _, c := range []struct {
		name string
		q    logical.Node
		dop  int
		want string
	}{
		{"group", &logical.GroupBy{Input: scan(l), Key: "K", Aggs: []expr.AggSpec{{Func: expr.AggCount}}}, 1, "SOG"},
	} {
		mode := Greedy()
		mode.DOP = c.dop
		hashed := optimize(t, c.q, mode).Best
		mode.MemBudget = int64(hashed.Mem) - 1
		plain := optimize(t, c.q, mode).Best
		if !strings.Contains(plain.Label(), c.want) || plain.Mem > float64(mode.MemBudget) {
			t.Fatalf("%s: want the fitting %s sibling of %s under a budget of %d, got:\n%s",
				c.name, c.want, hashed.Label(), mode.MemBudget, plain.Explain())
		}
		mode.Spill = true
		spilled := optimize(t, c.q, mode).Best
		if spilled.Explain() != plain.Explain() {
			t.Errorf("%s: spilling armed changed a plan that fits:\nwithout:\n%s\nwith:\n%s",
				c.name, plain.Explain(), spilled.Explain())
		}
	}
}

// TestGreedyKeepsFittingSerialTwin: at DOP 4 the greedy tier's unbudgeted
// pick for a grouping and a sort is parallel; under a budget of the serial
// pick's memory, the tier runs the serial twin that fits, as a DP site does,
// rather than the parallel pick over the budget or a spill twin — whether
// spilling is armed or not. A join has no such case: a parallel HJ or SPHJ
// builds the serial one's table and needs no more memory than it.
func TestGreedyKeepsFittingSerialTwin(t *testing.T) {
	// Unique or repeated, sparse, unsorted keys: the greedy tier picks
	// hashing, and the estimates are large enough for parallelism to pay.
	keys := func(n, distinct int) *storage.Column {
		k := make([]uint32, n)
		for i := range k {
			k[i] = uint32((i*7919)%distinct) * 1000
		}
		return storage.NewUint32("K", k)
	}
	scan := func(name string, cols ...*storage.Column) *logical.Scan {
		return &logical.Scan{Table: name, Rel: storage.MustNewRelation(name, cols...)}
	}
	for _, c := range []struct {
		name string
		q    logical.Node
	}{
		{"group", &logical.GroupBy{Input: scan("G", keys(400_000, 5_000), storage.NewInt64("V", make([]int64, 400_000))), Key: "K", Aggs: []expr.AggSpec{{Func: expr.AggSum, Col: "V"}}}},
		{"sort", &logical.Sort{Input: scan("S", keys(400_000, 400_000)), Key: "K"}},
	} {
		mode := Greedy()
		mode.DOP = 1
		serial := optimize(t, c.q, mode).Best
		mode.DOP = 4
		if parallel := optimize(t, c.q, mode).Best; parallel.DOP <= 1 || parallel.Mem <= serial.Mem {
			t.Fatalf("%s: the unbudgeted pick at DOP 4 is not a parallel plan over the serial pick's memory; the test is vacuous:\n%s", c.name, parallel.Explain())
		}
		mode.MemBudget = int64(serial.Mem)
		for _, spill := range []bool{false, true} {
			mode.Spill = spill
			got := optimize(t, c.q, mode).Best
			if got.Spill || got.Mem > float64(mode.MemBudget) {
				t.Errorf("%s (spill=%v): want a plan within the budget of %d that does not spill, got %s (mem %.0f, cost %.4g); the serial pick is %s (mem %.0f, cost %.4g)",
					c.name, spill, mode.MemBudget, got.Label(), got.Mem, got.Cost, serial.Label(), serial.Mem, serial.Cost)
			}
		}
	}
}
