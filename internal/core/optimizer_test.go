package core

import (
	"math"
	"strings"
	"testing"

	"dqo/internal/cost"
	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/hashtable"
	"dqo/internal/logical"
	"dqo/internal/naive"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/sortx"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// paperQuery builds SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID
// GROUP BY R.A over the paper's cardinalities (Section 4.3).
func paperQuery(t testing.TB, rSorted, sSorted, dense bool) logical.Node {
	t.Helper()
	cfg := datagen.PaperFKConfig(rSorted, sSorted, dense)
	r, s := datagen.FKPair(42, cfg)
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

func optimize(t testing.TB, n logical.Node, m Mode) *Result {
	t.Helper()
	res, err := Optimize(n, m)
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	return res
}

// TestFigure5Grid reproduces the paper's Figure 5: improvement factors for
// the estimated plan costs of DQO over SQO on the 2x4 sortedness/density
// grid. Expected (derived from Table 2 inside a real DP):
//
//	                     sparse   dense
//	Rsorted   Ssorted     1.00x    1.00x
//	          Sunsorted   1.51x*   4.00x
//	Runsorted Ssorted     1.00x    2.43x   (paper reports 2.8x; see EXPERIMENTS.md)
//	          Sunsorted   1.00x    4.00x
//
// (*) The paper reports 1x here; our full DQO additionally knows that
// probe-major joins preserve probe order, so with R sorted it commutes the
// hash join (build S, probe R) and feeds order-based grouping — a strictly
// better plan that does not even need density. TestFigure5GridPaperFaithful
// pins the paper's exact grid with that deep property disabled.
func TestFigure5Grid(t *testing.T) {
	type cell struct {
		rSorted, sSorted, dense bool
		want                    float64
	}
	cells := []cell{
		{true, true, false, 1.0},
		{true, true, true, 1.0},
		{true, false, false, 800000.0 / 530000},
		{true, false, true, 4.0},
		{false, true, false, 1.0},
		{false, true, true, 485754.0 / 200000},
		{false, false, false, 1.0},
		{false, false, true, 4.0},
	}
	for _, c := range cells {
		q := paperQuery(t, c.rSorted, c.sSorted, c.dense)
		_, _, factor, err := CompareModes(q, SQO(), DQO())
		if err != nil {
			t.Fatalf("cell %+v: %v", c, err)
		}
		if math.Abs(factor-c.want) > 0.01 {
			t.Errorf("cell Rsorted=%v Ssorted=%v dense=%v: factor %.4f, want %.4f",
				c.rSorted, c.sSorted, c.dense, factor, c.want)
		}
	}
}

// TestFigure5GridPaperFaithful disables probe-order tracking (the deep
// property the paper's hand analysis does not model) and reproduces the
// paper's sparse column exactly: all 1.00x.
func TestFigure5GridPaperFaithful(t *testing.T) {
	paperDQO := DQO()
	paperDQO.Name = "dqo-paper"
	paperDQO.TrackProbeOrder = false
	type cell struct {
		rSorted, sSorted, dense bool
		want                    float64
	}
	cells := []cell{
		{true, true, false, 1.0},
		{true, false, false, 1.0},
		{false, true, false, 1.0},
		{false, false, false, 1.0},
		{true, true, true, 1.0},
		{true, false, true, 4.0},
		{false, true, true, 485754.0 / 200000},
		{false, false, true, 4.0},
	}
	for _, c := range cells {
		q := paperQuery(t, c.rSorted, c.sSorted, c.dense)
		_, _, factor, err := CompareModes(q, SQO(), paperDQO)
		if err != nil {
			t.Fatalf("cell %+v: %v", c, err)
		}
		if math.Abs(factor-c.want) > 0.01 {
			t.Errorf("cell Rsorted=%v Ssorted=%v dense=%v: factor %.4f, want %.4f",
				c.rSorted, c.sSorted, c.dense, factor, c.want)
		}
	}
}

// TestJoinCommutativity checks that the optimiser considers swapped builds:
// with the dense unique key on the right input, SPHJ is only reachable by
// commuting, and the executed swapped plan matches the unswapped reference.
func TestJoinCommutativity(t *testing.T) {
	cfg := datagen.FKConfig{RRows: 800, SRows: 3600, AGroups: 80, Dense: true}
	r, s := datagen.FKPair(13, cfg)
	// S JOIN R with S on the left: the dense build side is the right input.
	q := &logical.GroupBy{
		Input: &logical.Join{
			Left:    &logical.Scan{Table: "S", Rel: s},
			Right:   &logical.Scan{Table: "R", Rel: r},
			LeftKey: "R_ID", RightKey: "ID",
		},
		Key:  "A",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}},
	}
	res := optimize(t, q, DQO())
	join := res.Best.Children[0]
	if !join.Swapped || join.Join.Kind != physical.SPHJ {
		t.Fatalf("expected swapped SPHJ, got %s (swapped=%v)\n%s", join.Label(), join.Swapped, res.Best.Explain())
	}
	out, err := Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: same query with HJ forced via SQO.
	ref := optimize(t, q, SQO())
	refOut, err := Execute(ref.Best)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := physical.SortRel(out, "A", sortx.Radix, 1, nil)
	b, _ := physical.SortRel(refOut, "A", sortx.Radix, 1, nil)
	if !a.MustColumn("A").Equal(b.MustColumn("A")) || !a.MustColumn("count_star").Equal(b.MustColumn("count_star")) {
		t.Fatal("swapped plan result differs from reference")
	}
}

// TestFigure5PlanShapes verifies *which* plans win, not just the factors.
func TestFigure5PlanShapes(t *testing.T) {
	// Unsorted+dense: DQO must pick SPHJ + SPHG (paper: "DQO chooses plans
	// that use the SPHJ and SPHG algorithms"); SQO must pick HJ + HG.
	q := paperQuery(t, false, false, true)
	sqo := optimize(t, q, SQO())
	dqo := optimize(t, q, DQO())
	if dqo.Best.Group.Kind != physical.SPHG {
		t.Errorf("DQO grouping = %s, want SPHG", dqo.Best.Group.Kind)
	}
	if j := dqo.Best.Children[0]; j.Op != OpJoin || j.Join.Kind != physical.SPHJ {
		t.Errorf("DQO join = %s, want SPHJ", j.Label())
	}
	if sqo.Best.Group.Kind != physical.HG {
		t.Errorf("SQO grouping = %s, want HG", sqo.Best.Group.Kind)
	}
	if j := sqo.Best.Children[0]; j.Join.Kind != physical.HJ {
		t.Errorf("SQO join = %s, want HJ", j.Label())
	}
	if sqo.Best.Cost != 800000 || dqo.Best.Cost != 200000 {
		t.Errorf("costs SQO=%g DQO=%g, want 800000/200000", sqo.Best.Cost, dqo.Best.Cost)
	}

	// Sorted/sorted: both pick order-based plans (OJ + OG), cost 200000.
	q = paperQuery(t, true, true, true)
	for _, m := range []Mode{SQO(), DQO()} {
		res := optimize(t, q, m)
		if res.Best.Group.Kind != physical.OG {
			t.Errorf("%s sorted/sorted grouping = %s, want OG", m.Name, res.Best.Group.Kind)
		}
		if j := res.Best.Children[0]; j.Join.Kind != physical.OJ {
			t.Errorf("%s sorted/sorted join = %s, want OJ", m.Name, j.Label())
		}
		if res.Best.Cost != 200000 {
			t.Errorf("%s sorted/sorted cost = %g, want 200000", m.Name, res.Best.Cost)
		}
	}

	// R unsorted, S sorted, dense: SQO's best plan is sort(R) + OJ + OG —
	// the enforcer pattern; DQO still goes SPH.
	q = paperQuery(t, false, true, true)
	sqo = optimize(t, q, SQO())
	if sqo.Best.Group.Kind != physical.OG {
		t.Errorf("SQO mixed grouping = %s, want OG", sqo.Best.Group.Kind)
	}
	join := sqo.Best.Children[0]
	if join.Join.Kind != physical.OJ {
		t.Errorf("SQO mixed join = %s, want OJ", join.Label())
	}
	if sortNode := join.Children[0]; sortNode.Op != OpSort || !sortNode.Enforcer || sortNode.SortKey != "ID" {
		t.Errorf("SQO mixed plan missing sort enforcer on R.ID: %s", sqo.Best.Explain())
	}
	dqo = optimize(t, q, DQO())
	if dqo.Best.Children[0].Join.Kind != physical.SPHJ {
		t.Errorf("DQO mixed join = %s, want SPHJ", dqo.Best.Children[0].Label())
	}
}

// TestFigure5PlansExecute executes every winning plan and cross-checks the
// results — estimated-cost winners must also be *correct*.
func TestFigure5PlansExecute(t *testing.T) {
	for _, dense := range []bool{true, false} {
		for _, rSorted := range []bool{true, false} {
			for _, sSorted := range []bool{true, false} {
				cfg := datagen.FKConfig{RRows: 800, SRows: 3600, AGroups: 80,
					RSorted: rSorted, SSorted: sSorted, Dense: dense}
				r, s := datagen.FKPair(7, cfg)
				q := &logical.GroupBy{
					Input: &logical.Join{
						Left:    &logical.Scan{Table: "R", Rel: r},
						Right:   &logical.Scan{Table: "S", Rel: s},
						LeftKey: "ID", RightKey: "R_ID",
					},
					Key:  "A",
					Aggs: []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "M"}},
				}
				var ref *storage.Relation
				for _, m := range []Mode{SQO(), DQO(), DQOCalibrated()} {
					res := optimize(t, q, m)
					out, err := Execute(res.Best)
					if err != nil {
						t.Fatalf("%s (%v): %v\n%s", m.Name, cfg, err, res.Best.Explain())
					}
					if out.NumRows() != 80 {
						t.Fatalf("%s: %d groups, want 80", m.Name, out.NumRows())
					}
					sorted, err := physical.SortRel(out, "A", sortx.Radix, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = sorted
						continue
					}
					if !ref.Equal(sorted) {
						t.Fatalf("%s disagrees with reference on %v", m.Name, cfg)
					}
				}
			}
		}
	}
}

func TestDQONeverWorseThanSQO(t *testing.T) {
	// Property: DQO's search space strictly contains SQO's, so its best
	// estimated cost is never higher.
	for _, dense := range []bool{true, false} {
		for _, rSorted := range []bool{true, false} {
			for _, sSorted := range []bool{true, false} {
				q := paperQuery(t, rSorted, sSorted, dense)
				sqo := optimize(t, q, SQO())
				dqo := optimize(t, q, DQO())
				if dqo.Best.Cost > sqo.Best.Cost {
					t.Errorf("dense=%v rs=%v ss=%v: DQO cost %g > SQO cost %g",
						dense, rSorted, sSorted, dqo.Best.Cost, sqo.Best.Cost)
				}
			}
		}
	}
}

func TestDeepEnumeratesMoreAlternatives(t *testing.T) {
	q := paperQuery(t, false, false, true)
	sqo := optimize(t, q, SQO())
	dqo := optimize(t, q, DQO())
	if dqo.Stats.Alternatives <= sqo.Stats.Alternatives {
		t.Fatalf("deep enumerated %d alternatives, shallow %d", dqo.Stats.Alternatives, sqo.Stats.Alternatives)
	}
	if sqo.Stats.Duration <= 0 || dqo.Stats.Duration <= 0 {
		t.Fatal("missing optimisation timings")
	}

	// The Table 2 model cannot price parallelism, so DQO is offered no
	// parallel twin at any DOP: it costs the same alternatives and picks the
	// same plan. The calibrated model prices twins and is still offered them.
	r, s := starPair()
	d := starDim()
	scan := func(rel *storage.Relation) *logical.Scan { return &logical.Scan{Table: rel.Name(), Rel: rel} }
	star := &logical.GroupBy{
		Input: &logical.Join{
			Left:  &logical.Join{Left: scan(s), Right: scan(r), LeftKey: "R_ID", RightKey: "ID"},
			Right: scan(d), LeftKey: "A", RightKey: "G",
		},
		Key:  "A",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}},
	}
	at := func(q logical.Node, m Mode, dop int) *Result {
		m.DOP = dop
		return optimize(t, q, m)
	}
	for _, c := range []struct {
		name string
		q    logical.Node
	}{{"paper query", q}, {"two-join star", star}} {
		name, q := c.name, c.q
		serial := at(q, DQO(), 1)
		for _, dop := range []int{2, 4} {
			res := at(q, DQO(), dop)
			if res.Stats.Alternatives != serial.Stats.Alternatives {
				t.Errorf("%s: DQO at DOP %d costed %d alternatives, at DOP 1 %d",
					name, dop, res.Stats.Alternatives, serial.Stats.Alternatives)
			}
			if got, want := res.Best.Explain(), serial.Best.Explain(); got != want {
				t.Errorf("%s: DQO at DOP %d picked\n%s\nat DOP 1\n%s", name, dop, got, want)
			}
		}
		cal1, cal4 := at(q, DQOCalibrated(), 1), at(q, DQOCalibrated(), 4)
		if cal4.Stats.Alternatives <= cal1.Stats.Alternatives {
			t.Errorf("%s: calibrated DQO at DOP 4 costed %d alternatives, at DOP 1 %d: no parallel twin offered",
				name, cal4.Stats.Alternatives, cal1.Stats.Alternatives)
		}
	}
}

func TestGroupOnlyQuery(t *testing.T) {
	for _, q := range datagen.Quadrants() {
		rel := datagen.GroupingRelation(3, 50000, 500, q)
		node := &logical.GroupBy{
			Input: &logical.Scan{Table: "g", Rel: rel},
			Key:   "key",
			Aggs:  []expr.AggSpec{{Func: expr.AggSum, Col: "val"}},
		}
		for _, m := range []Mode{SQO(), DQO(), DQOCalibrated()} {
			res := optimize(t, node, m)
			out, err := Execute(res.Best)
			if err != nil {
				t.Fatalf("%s on %s: %v", m.Name, q, err)
			}
			if out.NumRows() != 500 {
				t.Fatalf("%s on %s: %d groups", m.Name, q, out.NumRows())
			}
		}
		// On sorted input every optimiser must pick OG (cheapest in both
		// models).
		res := optimize(t, node, DQO())
		if q.Sorted && res.Best.Group.Kind != physical.OG {
			t.Errorf("%s: DQO grouping = %s, want OG", q, res.Best.Group.Kind)
		}
		// DQO on unsorted dense input must pick SPHG under the paper model.
		if !q.Sorted && q.Dense && res.Best.Group.Kind != physical.SPHG {
			t.Errorf("%s: DQO grouping = %s, want SPHG", q, res.Best.Group.Kind)
		}
	}
}

func TestFilterAndSortQuery(t *testing.T) {
	rel := datagen.GroupingRelation(5, 10000, 100, datagen.Quadrant{Sorted: false, Dense: true})
	node := &logical.Sort{
		Input: &logical.GroupBy{
			Input: &logical.Filter{
				Input: &logical.Scan{Table: "g", Rel: rel},
				Pred:  expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "key"}, R: expr.IntLit{V: 50}},
			},
			Key:  "key",
			Aggs: []expr.AggSpec{{Func: expr.AggCount}},
		},
		Key: "key",
	}
	for _, m := range []Mode{SQO(), DQO()} {
		res := optimize(t, node, m)
		out, err := Execute(res.Best)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if out.NumRows() != 50 {
			t.Fatalf("%s: %d groups, want 50", m.Name, out.NumRows())
		}
		keys := out.MustColumn("key").Uint32s()
		if !sortx.IsSortedUint32(keys) {
			t.Fatalf("%s: final output not sorted", m.Name)
		}
	}
}

func TestSortOnSortedInputIsFree(t *testing.T) {
	rel := datagen.GroupingRelation(6, 1000, 10, datagen.Quadrant{Sorted: true, Dense: true})
	node := &logical.Sort{Input: &logical.Scan{Table: "g", Rel: rel}, Key: "key"}
	res := optimize(t, node, DQO())
	if res.Best.Cost != 0 {
		t.Fatalf("sort on sorted input cost %g, want 0 (paper model, free scan + no-op sort)", res.Best.Cost)
	}
}

func TestProjectQuery(t *testing.T) {
	rel := datagen.GroupingRelation(8, 1000, 10, datagen.Quadrant{Sorted: true, Dense: true})
	node := &logical.Project{Input: &logical.Scan{Table: "g", Rel: rel}, Cols: []string{"key"}}
	res := optimize(t, node, DQO())
	out, err := Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCols() != 1 || out.NumRows() != 1000 {
		t.Fatal("project output wrong")
	}
	if !res.Best.Props.SortedOn("key") {
		t.Fatal("projection lost sortedness")
	}
}

func TestOptimizeErrors(t *testing.T) {
	rel := storage.MustNewRelation("t", storage.NewUint32("k", []uint32{1}))
	bad := &logical.GroupBy{Input: &logical.Scan{Table: "t", Rel: rel}, Key: "zz"}
	if _, err := Optimize(bad, DQO()); err == nil {
		t.Fatal("invalid plan accepted")
	}
	if _, err := Optimize(&logical.Scan{Table: "t", Rel: rel}, Mode{Name: "broken"}); err == nil {
		t.Fatal("mode without model accepted")
	}
}

func TestCalibratedDeepPicksCheapMolecules(t *testing.T) {
	// Under the calibrated model the deep optimiser should never pick the
	// murmur3 default when cheaper hash functions are modelled — on an
	// unsorted sparse input where HG wins.
	rel := datagen.GroupingRelation(9, 100000, 5000, datagen.Quadrant{Sorted: false, Dense: false})
	node := &logical.GroupBy{Input: &logical.Scan{Table: "g", Rel: rel}, Key: "key",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}}}
	res := optimize(t, node, DQOCalibrated())
	if res.Best.Group.Kind == physical.HG {
		if res.Best.Group.Opt.Hash == hashtable.Murmur3Fin {
			t.Fatalf("calibrated deep optimiser kept textbook defaults: %s", res.Best.Group.Label())
		}
	}
	// Execute to confirm the exotic molecule combination still works.
	out, err := Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 5000 {
		t.Fatalf("%d groups, want 5000", out.NumRows())
	}
}

func TestExplainOutput(t *testing.T) {
	q := paperQuery(t, false, false, true)
	res := optimize(t, q, DQO())
	exp := res.Best.Explain()
	for _, want := range []string{"SPHG", "SPHJ", "Scan(R)", "Scan(S)", "cost="} {
		if !strings.Contains(exp, want) {
			t.Fatalf("Explain missing %q:\n%s", want, exp)
		}
	}
	deep := res.Best.ExplainDeep()
	if !strings.Contains(deep, "granule tree") || !strings.Contains(deep, "«molecule»") {
		t.Fatalf("ExplainDeep missing granule trees:\n%s", deep)
	}
}

func TestPipelineBreakers(t *testing.T) {
	q := paperQuery(t, true, true, true)
	dqo := optimize(t, q, DQO())
	// OJ + OG: streaming all the way — no breakers.
	if n := dqo.Best.PipelineBreakers(); n != 0 {
		t.Fatalf("OJ+OG plan reports %d breakers, want 0\n%s", n, dqo.Best.Explain())
	}
	q = paperQuery(t, false, false, true)
	sqo := optimize(t, q, SQO())
	// HJ + HG: two breakers.
	if n := sqo.Best.PipelineBreakers(); n != 2 {
		t.Fatalf("HJ+HG plan reports %d breakers, want 2\n%s", n, sqo.Best.Explain())
	}
}

func TestModeConstructors(t *testing.T) {
	if m := SQO(); m.Depth != physio.Shallow || m.TrackProbeOrder || m.Model.Name() != "paper" {
		t.Fatalf("SQO() = %+v", m)
	}
	if m := DQO(); m.Depth != physio.Deep || !m.TrackProbeOrder || m.Model.Name() != "paper" {
		t.Fatalf("DQO() = %+v", m)
	}
	if m := DQOCalibrated(); m.Model.Name() != "calibrated" {
		t.Fatalf("DQOCalibrated() = %+v", m)
	}
	if _, ok := interface{}(cost.Paper{}).(cost.Model); !ok {
		t.Fatal("Paper does not implement Model")
	}
}

// fingerprintPareto is the DP table as it was keyed before props.Key: per
// Fingerprint string, the cheapest plan, in order of first appearance.
func fingerprintPareto(plans []*Plan) []*Plan {
	slot := map[string]int{}
	var out []*Plan
	for _, p := range plans {
		fp := p.Props.Fingerprint()
		if i, ok := slot[fp]; !ok {
			slot[fp] = len(out)
			out = append(out, p)
		} else if p.Cost < out[i].Cost {
			out[i] = p
		}
	}
	return out
}

// TestParetoKeyedLikeFingerprint offers a site table the plans of the DP tables
// of the query corpus — the Figure-5 cells and the differential suite's
// random shapes, at every logical site, pooled per mode so that vectors
// differing only in order, density or bounds meet — and checks it keeps
// exactly the plans per-Fingerprint pruning keeps: the digest key is a
// cheaper spelling of the same dedup, never a different pruning.
func TestParetoKeyedLikeFingerprint(t *testing.T) {
	var queries []logical.Node
	for cell := 0; cell < 8; cell++ {
		queries = append(queries, greedyQuery(t, cell&1 != 0, cell&2 != 0, cell&4 != 0))
	}
	r := xrand.New(20260925)
	for i := 0; i < 40; i++ {
		queries = append(queries, randomQuery(r))
	}
	parallel := DQO()
	parallel.DOP = 4
	for _, m := range []Mode{SQO(), DQO(), parallel, DQOCalibrated()} {
		var pool []*Plan
		seen := map[*Plan]bool{}
		var collect func(p *Plan)
		collect = func(p *Plan) {
			if seen[p] {
				return
			}
			seen[p] = true
			pool = append(pool, p)
			for _, c := range p.Children {
				collect(c)
			}
		}
		o := &optimizer{mode: m}
		var sites func(n logical.Node)
		sites = func(n logical.Node) {
			table, err := o.optimize(n)
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			for _, p := range table {
				collect(p)
			}
			for _, c := range n.Children() {
				sites(c)
			}
		}
		for _, q := range queries {
			sites(q)
		}
		table := site{o: o}
		for _, p := range pool {
			table.offer(ordinary, p.Props.Key(), p.Cost, func(q *Plan) { *q = *p })
		}
		got, want := table.table(), fingerprintPareto(pool)
		if len(got) != len(want) {
			t.Fatalf("%s: kept %d of %d plans, per-Fingerprint pruning keeps %d", m.Name, len(got), len(pool), len(want))
		}
		for i := range got {
			// The table holds copies of the pool's plans.
			if got[i].Label() != want[i].Label() || got[i].Cost != want[i].Cost || got[i].Props.Fingerprint() != want[i].Props.Fingerprint() {
				t.Fatalf("%s: entry %d differs: %s vs %s", m.Name, i,
					got[i].Props.Fingerprint(), want[i].Props.Fingerprint())
			}
		}
		if len(got) < 100 || len(got) == len(pool) {
			t.Fatalf("%s: %d property-distinct entries among %d plans: the pool does not exercise the dedup", m.Name, len(got), len(pool))
		}
	}
}

func TestThreeWayJoin(t *testing.T) {
	// A chain R -> S -> T: multi-join plans must optimise and execute in
	// every mode, and agree with the oracle. T maps each A group to a label id.
	cfg := datagen.FKConfig{RRows: 400, SRows: 1600, AGroups: 40, RSorted: true, SSorted: true, Dense: true}
	r, s := datagen.FKPair(17, cfg)
	labelIDs := make([]uint32, 40)
	weights := make([]int64, 40)
	for i := range labelIDs {
		labelIDs[i] = uint32(i)
		weights[i] = int64(i * 10)
	}
	tt := storage.MustNewRelation("T",
		storage.NewUint32("AID", labelIDs),
		storage.NewInt64("W", weights),
	)
	// (R join S) join T on A = AID, group by AID.
	node := &logical.GroupBy{
		Input: &logical.Join{
			Left: &logical.Join{
				Left:    &logical.Scan{Table: "R", Rel: r},
				Right:   &logical.Scan{Table: "S", Rel: s},
				LeftKey: "ID", RightKey: "R_ID",
			},
			Right:   &logical.Scan{Table: "T", Rel: tt},
			LeftKey: "A", RightKey: "AID",
		},
		Key:  "AID",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "W"}},
	}
	want, err := naive.Execute(node)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != 40 {
		t.Fatalf("oracle: %d groups, want 40", want.NumRows())
	}
	for _, m := range []Mode{SQO(), DQO(), DQOCalibrated(), Greedy()} {
		res := optimize(t, node, m)
		out, err := Execute(res.Best)
		if err != nil {
			t.Fatalf("%s: %v\n%s", m.Name, err, res.Best.Explain())
		}
		if err := naive.Check(out, want, "", -1); err != nil {
			t.Fatalf("%s: three-way join: %v\n%s", m.Name, err, res.Best.Explain())
		}
	}
}
