package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dqo/internal/exec"
	"dqo/internal/expr"
	"dqo/internal/hashtable"
	"dqo/internal/logical"
	"dqo/internal/naive"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/props"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// lowerMorsel is the batch size of the lowering grid: small, so that the
// join's batch count tells a counting join from a pair join.
const lowerMorsel = 512

// lowerTables returns R(ID, A, V) and S(R_ID, B, M) with nr and ns rows. R is
// in ID order and A = row/4, so A is grouped wherever R's order survives;
// every fifth R row repeats the ID before it, so IDs are duplicated and some
// are missing. S is in B order (B = row/8), and its R_ID are drawn from a
// range wider than R's, so some S rows and some R rows have no match. V and M
// span the whole int64 range, so sums wrap around. With shared set, S's M is
// named V.
func lowerTables(seed uint64, nr, ns int, shared bool) (r, s *storage.Relation) {
	rnd := xrand.New(seed)
	id, a, v := make([]uint32, nr), make([]uint32, nr), make([]int64, nr)
	for i := range id {
		id[i], a[i], v[i] = uint32(i), uint32(i/4), int64(rnd.Uint64())
		if i%5 == 4 {
			id[i] = uint32(i - 1)
		}
	}
	rid, b, m := make([]uint32, ns), make([]uint32, ns), make([]int64, ns)
	for i := range rid {
		rid[i], b[i], m[i] = rnd.Uint32n(uint32(nr+64)), uint32(i/8), int64(rnd.Uint64())
	}
	mName := "M"
	if shared {
		mName = "V"
	}
	r = storage.MustNewRelation("R", storage.NewUint32("ID", id), storage.NewUint32("A", a), storage.NewInt64("V", v))
	s = storage.MustNewRelation("S", storage.NewUint32("R_ID", rid), storage.NewUint32("B", b), storage.NewInt64(mName, m))
	return r, s
}

// denseUpTo is the dense domain [0, hi].
func denseUpTo(hi int) props.Domain {
	return props.Domain{Known: true, Dense: true, Lo: 0, Hi: uint64(hi), Distinct: int64(hi + 1)}
}

// lowerCase is one cell of the lowering grid: a grouping over the join
// R ⋈ S on ID = R_ID, planned by hand.
type lowerCase struct {
	join     physical.JoinKind
	parallel int
	swapped  bool   // build on S
	source   string // "fresh", "kept" (the build is offered and taken) or "av" (a prebuilt index)
	group    physical.GroupKind
	groupPar int // the grouping's workers
	key      string
	aggs     []expr.AggSpec
	spill    string // "", "join" or "group": that node is a spill twin
}

func (c lowerCase) String() string {
	return fmt.Sprintf("%s/par%d/swapped=%v/%s/%s/par%d(%s; %d aggs)/spill=%s", c.join, c.parallel, c.swapped, c.source, c.group, c.groupPar, c.key, len(c.aggs), c.spill)
}

// plan builds the case's plan over r and s.
func (c lowerCase) plan(r, s *storage.Relation) *Plan {
	nr, ns := r.NumRows(), s.NumRows()
	join := &Plan{
		Op: OpJoin, Join: physio.JoinChoice{Kind: c.join, Opt: physical.JoinOptions{Parallel: c.parallel}},
		LeftKey: "ID", RightKey: "R_ID", Swapped: c.swapped, KeyDom: denseUpTo(nr + 63), Spill: c.spill == "join",
		Children: []*Plan{{Op: OpScan, Table: "R", Rel: r}, {Op: OpScan, Table: "S", Rel: s}},
	}
	if c.source == "av" {
		build, table, col := r, "R", "ID"
		if c.swapped {
			build, table, col = s, "S", "R_ID"
		}
		keys := build.MustColumn(col).Uint32s()
		idx := &oneIndex{table: table, column: col, sph: c.join == physical.SPHJ}
		if idx.sph {
			idx.idx, _ = hashtable.BuildSPH(keys, 0, nr+64, nil)
		} else {
			idx.idx, _ = hashtable.BuildMulti(hashtable.Murmur3Fin, keys, nil)
		}
		join.Index, join.AV = idx, idx.Label()
	}
	keyHi := nr / 4
	if c.key == "B" {
		keyHi = ns / 8
	}
	return &Plan{
		Op: OpGroup, Group: physio.GroupChoice{Kind: c.group, Opt: physical.GroupOptions{Parallel: c.groupPar}}, GroupKey: c.key, Aggs: c.aggs,
		KeyDom: denseUpTo(keyHi), Spill: c.spill == "group", Children: []*Plan{join},
	}
}

// run executes p through the grouping's counting lowering or, with pairs
// set, through the pair lowering: re-planning armed at a threshold no
// estimate reaches, which lowers every node as planned but never counts.
func (c lowerCase) run(t *testing.T, p *Plan, pairs bool) (*storage.Relation, exec.Profile) {
	t.Helper()
	var root exec.Operator
	var err error
	if pairs {
		root, err = CompileReopt(p, &ReoptConfig{Threshold: math.Inf(1)})
	} else {
		root, err = Compile(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	ec := exec.NewExecContext(context.Background(), lowerMorsel, 2)
	taker := &countingTaker{take: true}
	if c.source == "kept" {
		ec.Tables = taker
	}
	out, err := exec.Run(ec, root)
	if err != nil {
		t.Fatalf("%v (pairs=%v): %v", c, pairs, err)
	}
	build := p.Children[0].Children[0].Rel
	if c.swapped {
		build = p.Children[0].Children[1].Rel
	}
	if c.source == "kept" && build.NumRows() >= exec.DefaultMorselSize && len(taker.offers) != 1 {
		t.Fatalf("%v (pairs=%v): %d offers of the build, want 1", c, pairs, len(taker.offers))
	}
	return out, exec.CollectProfile(root)
}

// matchStats returns the number of pairs of R ⋈ S and of rows of R and of S
// that have a match.
func matchStats(r, s *storage.Relation) (pairs, rMatched, sMatched int) {
	ids := map[uint32]int{}
	for _, id := range r.MustColumn("ID").Uint32s() {
		ids[id]++
	}
	used := map[uint32]bool{}
	for _, k := range s.MustColumn("R_ID").Uint32s() {
		pairs += ids[k]
		if ids[k] > 0 {
			sMatched++
			used[k] = true
		}
	}
	for _, id := range r.MustColumn("ID").Uint32s() {
		if used[id] {
			rMatched++
		}
	}
	return pairs, rMatched, sMatched
}

// batches is the number of batches a breaker emits for rows output rows.
func batches(rows int) int64 { return int64(max(1, (rows+lowerMorsel-1)/lowerMorsel)) }

// TestGroupOverJoinLowering: a grouping whose columns all come from one
// input of the join below it reads that join as match counts (countsJoin)
// wherever the rule allows, and returns byte-identical relations, row order
// included, to the pair lowering — for HJ and SPHJ (serial, and at two
// workers, whose probe counts in two chunks) built fresh, built and kept, or
// served by a prebuilt Multi or SPH; built on either input; under every
// grouping kind the rule admits, serial and at two workers; counting alone or
// folding every aggregate; with duplicate build keys, rows without a match
// and empty inputs. Both lowerings agree with the naive evaluator, and the
// join's act_rows is the pair count either way. Every condition that keeps
// the pair lowering has a case of its own.
func TestGroupOverJoinLowering(t *testing.T) {
	count := []expr.AggSpec{{Func: expr.AggCount}}
	every := func(col, ucol string) []expr.AggSpec {
		return []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggCount, Col: col}, {Func: expr.AggSum, Col: col},
			{Func: expr.AggMin, Col: col}, {Func: expr.AggMax, Col: col}, {Func: expr.AggAvg, Col: col}, {Func: expr.AggSum, Col: ucol}}
	}
	naiveOf := func(r, s *storage.Relation, key string, aggs []expr.AggSpec) *storage.Relation {
		t.Helper()
		want, err := naive.Execute(&logical.GroupBy{Input: &logical.Join{
			Left: &logical.Scan{Table: "R", Rel: r}, Right: &logical.Scan{Table: "S", Rel: s},
			LeftKey: "ID", RightKey: "R_ID",
		}, Key: key, Aggs: aggs})
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	// check runs c both ways and compares; counted says whether the rule
	// must pick the counting lowering.
	check := func(c lowerCase, r, s *storage.Relation, want *storage.Relation, counted bool) {
		t.Helper()
		p := c.plan(r, s)
		if got := p.countsJoin(nil); got != counted {
			t.Fatalf("%v: countsJoin = %v, want %v", c, got, counted)
		}
		if p.countsJoin(&ReoptConfig{}) {
			t.Fatalf("%v: counts the join with re-planning on", c)
		}
		got, prof := c.run(t, p, false)
		ref, refProf := c.run(t, c.plan(r, s), true)
		if !got.Equal(ref) {
			t.Fatalf("%v: counting lowering differs from the pair lowering:\n%v\nvs\n%v", c, got, ref)
		}
		for name, rel := range map[string]*storage.Relation{"counting": got, "pairs": ref} {
			if err := naive.Check(rel, want, "", -1); err != nil {
				t.Fatalf("%v: %s lowering differs from the naive evaluator: %v", c, name, err)
			}
		}
		pairs, rMatched, sMatched := matchStats(r, s)
		kept := rMatched
		if c.key == "B" {
			kept = sMatched
		}
		joinOf := func(prof exec.Profile) exec.OpStat {
			for _, st := range prof {
				if st.Depth == 1 {
					return st
				}
			}
			t.Fatalf("%v: no join in the profile", c)
			return exec.OpStat{}
		}
		for name, st := range map[string]exec.OpStat{"counting": joinOf(prof), "pairs": joinOf(refProf)} {
			if st.RowsOut != int64(pairs) {
				t.Fatalf("%v: %s join act_rows = %d, want the pair count %d", c, name, st.RowsOut, pairs)
			}
		}
		if want := batches(pairs); joinOf(refProf).Batches != want {
			t.Fatalf("%v: pair join emitted %d batches, want %d", c, joinOf(refProf).Batches, want)
		}
		wantBatches := batches(pairs)
		if counted {
			wantBatches = batches(kept)
		}
		if got := joinOf(prof).Batches; got != wantBatches {
			t.Fatalf("%v: join emitted %d batches, want %d (counted=%v)", c, got, wantBatches, counted)
		}
	}

	for _, size := range []struct{ nr, ns int }{{4200, 6000}, {0, 600}, {400, 0}} {
		r, s := lowerTables(uint64(size.nr+size.ns), size.nr, size.ns, false)
		wants := map[string]*storage.Relation{}
		for _, key := range []string{"A", "B"} {
			for _, full := range []bool{false, true} {
				aggs := count
				if full && key == "A" {
					aggs = every("V", "ID")
				} else if full {
					aggs = every("M", "R_ID")
				}
				name := fmt.Sprint(key, full)
				if wants[name] == nil {
					wants[name] = naiveOf(r, s, key, aggs)
				}
				for _, j := range []struct {
					kind     physical.JoinKind
					parallel int
				}{{physical.HJ, 0}, {physical.HJ, 2}, {physical.SPHJ, 0}, {physical.SPHJ, 2}} {
					for _, source := range []string{"fresh", "kept", "av"} {
						for _, swapped := range []bool{false, true} {
							keepProbe := (key == "B") != swapped
							for _, gk := range physical.GroupKinds() {
								if gk == physical.OG && !keepProbe {
									continue // the pairs are not grouped on the key
								}
								counted := keepProbe || gk != physical.HG
								c := lowerCase{join: j.kind, parallel: j.parallel, swapped: swapped, source: source, group: gk, key: key, aggs: aggs}
								check(c, r, s, wants[name], counted)
							}
						}
					}
				}
			}
		}
	}

	// Groupings at two workers over counted joins: HG's per-worker tables
	// merge in first-seen order over enough kept probe rows to split, SOG
	// and SPHG sort whatever their input's order.
	bigR, bigS := lowerTables(11, 4200, 20000, false)
	for _, c := range []lowerCase{
		{join: physical.SPHJ, source: "fresh", group: physical.HG, groupPar: 2, key: "B", aggs: every("M", "R_ID")},
		{join: physical.HJ, source: "av", group: physical.SOG, groupPar: 2, key: "B", aggs: count},
		{join: physical.SPHJ, source: "fresh", group: physical.SPHG, groupPar: 2, key: "A", aggs: every("V", "ID")},
	} {
		check(c, bigR, bigS, naiveOf(bigR, bigS, c.key, c.aggs), true)
	}

	// The conditions that keep the pair lowering, each on a case that would
	// otherwise count.
	r, s := lowerTables(7, 4200, 6000, false)
	other := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "M"}}
	check(lowerCase{join: physical.SPHJ, source: "fresh", group: physical.SPHG, key: "A", aggs: other}, r, s, naiveOf(r, s, "A", other), false)
	wantA := naiveOf(r, s, "A", count)
	for _, c := range []lowerCase{
		{join: physical.HJ, source: "fresh", group: physical.HG, key: "A", aggs: count},                                  // HG over a kept build side
		{join: physical.SOJ, source: "fresh", group: physical.SPHG, key: "A", aggs: count},                               // no counting kernel
		{join: physical.BSJ, source: "fresh", group: physical.SPHG, key: "A", aggs: count},                               // no counting kernel
		{join: physical.HJ, source: "fresh", group: physical.SPHG, key: "A", aggs: count, spill: "join"},                 // spill twin join
		{join: physical.SPHJ, swapped: true, source: "fresh", group: physical.HG, key: "A", aggs: count, spill: "group"}, // spill twin grouping
	} {
		check(c, r, s, wantA, false)
	}
	sharedR, sharedS := lowerTables(7, 4200, 6000, true)
	check(lowerCase{join: physical.SPHJ, source: "fresh", group: physical.SPHG, key: "A", aggs: count},
		sharedR, sharedS, naiveOf(sharedR, sharedS, "A", count), false)
}
