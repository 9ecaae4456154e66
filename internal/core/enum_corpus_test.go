package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// This file holds the corpus and the configuration grid the enumeration is
// pinned on, and the test that pins it to the optimiser of PR 19 (c2aa5e6)
// through a golden file that commit wrote. It uses nothing but Optimize and
// the Mode fields, so that it compiles against that commit unchanged; the
// site-by-site differential against the in-tree reference is in
// site_diff_test.go.

var updateEnumeration = flag.Bool("update-enumeration", false,
	"rewrite testdata/enumeration.golden: only from a commit whose enumeration is the reference")

// starShapes is the number of adhoc-plan shapes of the repository benchmark:
// 3 FROM orders x 4 filters x 3 tails over the S⋈R⋈D star.
const starShapes = 36

// enumQueries is the corpus: the eight Figure-5 cells, random shapes of the
// differential suite, single-table shapes whose filter sits directly on a
// scan (where cracked and direct-on-compressed alternatives arise), the
// starShapes adhoc-plan shapes with the filter above the joins, as the binder
// wrote WHERE before selections ran at the scans, and last the same shapes
// with each conjunct directly on the scan it reads, as the binder places them
// now. The second layout is built by hand, like the rest of the corpus.
// compressed encodes the star's tables.
func enumQueries(t testing.TB, compressed bool) []logical.Node {
	t.Helper()
	var qs []logical.Node
	for cell := 0; cell < 8; cell++ {
		qs = append(qs, greedyQuery(t, cell&1 != 0, cell&2 != 0, cell&4 != 0))
	}
	rnd := xrand.New(20260927)
	for i := 0; i < 12; i++ {
		qs = append(qs, randomQuery(rnd))
	}

	r, s := starPair()
	g, w := make([]uint32, 200), make([]int64, 200)
	for i := range g {
		g[i], w[i] = uint32(i), int64(i%97)
	}
	d := storage.MustNewRelation("D", storage.NewUint32("G", g), storage.NewInt64("W", w))
	runs := datagen.CompressRelation("runs", 7, 10_000, 8, 1.2, true)
	if compressed {
		r, s, d, runs = r.Compress(), s.Compress(), d.Compress(), runs.Compress()
	}
	scan := func(rel *storage.Relation) *logical.Scan { return &logical.Scan{Table: rel.Name(), Rel: rel} }
	cmp := func(col string, op expr.Op, v int64) expr.Expr {
		return expr.Bin{Op: op, L: expr.Col{Name: col}, R: expr.IntLit{V: v}}
	}
	count := []expr.AggSpec{{Func: expr.AggCount}}

	qs = append(qs,
		&logical.GroupBy{Input: &logical.Filter{Input: scan(r), Pred: cmp("A", expr.OpLt, 60)}, Key: "A", Aggs: count},
		&logical.Sort{Input: &logical.Project{Input: &logical.Filter{Input: scan(r), Pred: cmp("A", expr.OpGe, 150)}, Cols: []string{"ID"}}, Key: "ID"},
		&logical.Sort{Input: &logical.Filter{Input: scan(s), Pred: cmp("R_ID", expr.OpLt, 100)}, Key: "R_ID"},
		&logical.Sort{Input: scan(s), Key: "M"},
		&logical.GroupBy{Input: &logical.Filter{Input: scan(runs), Pred: cmp("key", expr.OpLt, 3)}, Key: "key",
			Aggs: []expr.AggSpec{{Func: expr.AggSum, Col: "val"}}},
	)

	// Each FROM order joins what leaf returns for each table.
	froms := []func(leaf func(*storage.Relation) logical.Node) logical.Node{
		func(leaf func(*storage.Relation) logical.Node) logical.Node {
			return &logical.Join{Left: &logical.Join{Left: leaf(s), Right: leaf(r), LeftKey: "R_ID", RightKey: "ID"},
				Right: leaf(d), LeftKey: "A", RightKey: "G"}
		},
		func(leaf func(*storage.Relation) logical.Node) logical.Node {
			return &logical.Join{Left: &logical.Join{Left: leaf(r), Right: leaf(s), LeftKey: "ID", RightKey: "R_ID"},
				Right: leaf(d), LeftKey: "A", RightKey: "G"}
		},
		func(leaf func(*storage.Relation) logical.Node) logical.Node {
			return &logical.Join{Left: &logical.Join{Left: leaf(d), Right: leaf(r), LeftKey: "G", RightKey: "A"},
				Right: leaf(s), LeftKey: "ID", RightKey: "R_ID"}
		},
	}
	// A filter's conjuncts by the table each reads, in statement order.
	type conjunct struct {
		table string
		pred  expr.Expr
	}
	filters := [][]conjunct{
		{{"R", cmp("A", expr.OpLt, 95)}},
		{{"D", cmp("W", expr.OpLt, 50)}},
		{{"S", cmp("M", expr.OpGe, 50)}},
		{{"R", cmp("A", expr.OpGe, 25)}, {"S", cmp("M", expr.OpLt, 70)}},
	}
	tails := []struct {
		aggs   []expr.AggSpec
		sorted bool
	}{
		{count, false},
		{[]expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "M"}}, true},
		{[]expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "W"}}, true},
	}
	for _, pushed := range []bool{false, true} {
		for _, from := range froms {
			for _, conjs := range filters {
				for _, tail := range tails {
					var in logical.Node
					if pushed {
						in = from(func(rel *storage.Relation) logical.Node {
							var n logical.Node = scan(rel)
							for _, c := range conjs {
								if c.table == rel.Name() {
									n = &logical.Filter{Input: n, Pred: c.pred}
								}
							}
							return n
						})
					} else {
						pred := conjs[0].pred
						for _, c := range conjs[1:] {
							pred = expr.Bin{Op: expr.OpAnd, L: pred, R: c.pred}
						}
						in = &logical.Filter{Input: from(func(rel *storage.Relation) logical.Node { return scan(rel) }), Pred: pred}
					}
					var q logical.Node = &logical.GroupBy{Input: in, Key: "A", Aggs: tail.aggs}
					if tail.sorted {
						q = &logical.Sort{Input: q, Key: "A"}
					}
					qs = append(qs, q)
				}
			}
		}
	}
	for _, q := range qs {
		if err := logical.Validate(q); err != nil {
			t.Fatalf("corpus query %s: %v", q, err)
		}
	}
	return qs
}

// starPair generates the star's fact and dimension tables, at the sizes of
// the repository benchmark's adhoc-plan workload.
func starPair() (r, s *storage.Relation) {
	return datagen.FKPair(42, datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200, RSorted: true, Dense: true})
}

// Test doubles of the AV providers. They answer by table name alone, so a
// corpus query over another generation of R gets the star's view: nothing is
// executed here, and the optimiser reads a view's statistics and label only.
type testIndexes []*oneIndex

func (ix testIndexes) Index(table, column string) (PrebuiltIndex, bool) {
	for _, o := range ix {
		if o.table == table && o.column == column {
			return o, true
		}
	}
	return nil, false
}

type testScans map[string][]ScanVariant

func (s testScans) ScanVariants(table string) []ScanVariant { return s[table] }

type testCrack struct{ table, column string }

func (c testCrack) Cracked(table, column string) (RangeIndex, bool) {
	return c, table == c.table && column == c.column
}
func (c testCrack) Range64(lo, hi uint64) []int32 { return nil }
func (c testCrack) Label() string                 { return "av:crack(" + c.table + "." + c.column + ")" }

// enumAVs is the AV dimension of the grid.
type enumAV struct {
	name       string
	compressed bool
	install    func(Mode) Mode
}

func enumAVs(t testing.TB) []enumAV {
	r, s := starPair()
	sorted := func(rel *storage.Relation, col string) ScanVariant {
		out, err := physical.SortRel(rel, col, sortx.Radix)
		if err != nil {
			t.Fatal(err)
		}
		if out != rel { // input already in order comes back as itself
			for _, c := range rel.Corrs() {
				out.DeclareCorr(c[0], c[1])
			}
		}
		return ScanVariant{Label: "av:sorted(" + rel.Name() + "." + col + ")", Rel: out}
	}
	same := func(m Mode) Mode { return m }
	return []enumAV{
		{"none", false, same},
		{"hashidx", false, func(m Mode) Mode {
			return m.WithAVs(nil, testIndexes{{table: "S", column: "R_ID"}, {table: "R", column: "ID", sph: true}})
		}},
		{"sorted", false, func(m Mode) Mode {
			return m.WithAVs(testScans{"S": {sorted(s, "R_ID")}, "R": {sorted(r, "A")}}, nil)
		}},
		{"cracked", false, func(m Mode) Mode { return m.WithCracked(testCrack{"R", "A"}) }},
		{"compressed", true, same},
	}
}

// enumBudget is the memory dimension: no budget, one everything fits, one
// that half of the unbudgeted winner's estimate fits (so that some sites
// prune and some fall back), one nothing fits; each with Spill off and on.
type enumBudget struct {
	name  string
	of    func(unbudgeted float64) int64
	spill bool
}

var enumBudgets = func() []enumBudget {
	out := []enumBudget{{"none", func(float64) int64 { return 0 }, false}}
	for _, spill := range []bool{false, true} {
		suffix := map[bool]string{false: "", true: "+spill"}[spill]
		out = append(out,
			enumBudget{"roomy" + suffix, func(float64) int64 { return 1 << 40 }, spill},
			enumBudget{"tight" + suffix, func(m float64) int64 { return max(int64(m/2), 1) }, spill},
			enumBudget{"starved" + suffix, func(float64) int64 { return 1 }, spill},
		)
	}
	return out
}()

// flatModel prices every step at 1, so that every alternative over the same
// inputs ties at every kind of site and only enumeration order decides.
type flatModel struct{}

func (flatModel) Name() string                                                  { return "flat" }
func (flatModel) Scan(float64) float64                                          { return 1 }
func (flatModel) Filter(float64) float64                                        { return 1 }
func (flatModel) SortBy(float64, sortx.Kind) float64                            { return 1 }
func (flatModel) Group(c physio.GroupChoice, rows, groups float64) float64      { return 1 }
func (flatModel) Join(c physio.JoinChoice, b, p, d float64) float64             { return 1 }
func (flatModel) Parallel(c float64, dop int) float64                           { return c }
func (flatModel) ScanCompressed(float64, props.Compression) float64             { return 1 }
func (flatModel) FilterCompressed(r, w, o float64, _ props.Compression) float64 { return 1 }
func (flatModel) Spill(c, rows, passes float64) float64                         { return c + 1 }

// enumModes is the mode dimension: the three exact tiers, the greedy tier,
// and every alternative tying (flat).
func enumModes() []Mode {
	flat := DQO()
	flat.Name, flat.Model = "flat", flatModel{}
	return []Mode{SQO(), DQO(), DQOCalibrated(), Greedy(), flat}
}

// forEachEnumConfig calls fn with every configuration of the grid and the
// corpus it applies to.
func forEachEnumConfig(t *testing.T, fn func(name string, mode Mode, budget enumBudget, queries []logical.Node)) {
	corpus := map[bool][]logical.Node{false: enumQueries(t, false), true: enumQueries(t, true)}
	for _, av := range enumAVs(t) {
		for _, base := range enumModes() {
			for _, budget := range enumBudgets {
				for _, beam := range []int{0, 2, 8} {
					for _, dop := range []int{1, 2, 4} {
						if base.Greedy && beam > 0 {
							continue // the greedy tier has no tables to cap
						}
						mode := av.install(base)
						mode.DOP, mode.Beam, mode.Spill = dop, beam, budget.spill
						name := fmt.Sprintf("%s/av=%s/mem=%s/beam=%d/dop=%d", base.Name, av.name, budget.name, beam, dop)
						fn(name, mode, budget, corpus[av.compressed])
					}
				}
			}
		}
	}
}

// TestEnumerationMatchesGolden pins what every tier returns — the chosen
// plan, the number of alternatives costed and the size of the root table — to
// testdata/enumeration.golden, written by the optimiser of PR 19, which built
// every alternative before it pruned. One line per mode, AV and memory
// configuration digests the corpus over the beam and DOP settings; the star
// shapes with their conjuncts on the scans are digested on lines of their own
// ("/star=pushed"), which follow the others and were written by the same
// optimiser at d4b3006.
func TestEnumerationMatchesGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the full grid takes a few seconds")
	}
	t.Parallel()
	// The budget that half fits is derived per query from the unbudgeted plan.
	unbudgeted := map[logical.Node]float64{}
	digests := map[string]uint64{}
	var order, pushedOrder []string
	forEachEnumConfig(t, func(name string, mode Mode, budget enumBudget, queries []logical.Node) {
		line := name[:strings.Index(name, "/beam=")]
		pushed := line + "/star=pushed"
		if _, seen := digests[line]; !seen {
			order = append(order, line)
			pushedOrder = append(pushedOrder, pushed)
		}
		h, hp := fnv.New64a(), fnv.New64a()
		fmt.Fprintf(h, "%016x", digests[line])
		fmt.Fprintf(hp, "%016x", digests[pushed])
		for qi, q := range queries {
			h := h
			if qi >= len(queries)-starShapes {
				h = hp
			}
			mem, ok := unbudgeted[q]
			if !ok {
				res, err := Optimize(q, DQOCalibrated())
				if err != nil {
					t.Fatal(err)
				}
				mem = res.Best.Mem
				unbudgeted[q] = mem
			}
			mode.MemBudget = budget.of(mem)
			res, err := Optimize(q, mode)
			if err != nil {
				fmt.Fprintf(h, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(h, "%s%d %d\n", res.Best.Explain(), res.Stats.Alternatives, res.Stats.Kept)
		}
		digests[line], digests[pushed] = h.Sum64(), hp.Sum64()
	})
	var b strings.Builder
	for _, line := range append(order, pushedOrder...) {
		fmt.Fprintf(&b, "%s %016x\n", line, digests[line])
	}
	path := filepath.Join("testdata", "enumeration.golden")
	if *updateEnumeration {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d configurations, the golden file has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("plans, alternatives or kept counts moved: %s (golden %s)", got[i], wantLines[i])
		}
	}
}
