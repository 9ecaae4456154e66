package dqo

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"dqo/internal/core"
	"dqo/internal/cost"
	"dqo/internal/exec"
	"dqo/internal/logical"
	"dqo/internal/naive"
	"dqo/internal/physio"
	"dqo/internal/sql"
	"dqo/internal/storage"
)

// The differential lattice: every query of the corpus (plus the misestimated
// queries that make re-planning splice) under every declared mode, in one
// execution variant, at every worker count and morsel size. Every point is
// checked against the naive oracle (internal/naive), which shares no planner,
// kernel or executor with the engine; the variants that promise it are also
// byte-identical to the plain database's serial whole-morsel run of the same
// planning. Each Test*Differential below runs one variant.

// latticeVariant is one way of executing the corpus.
type latticeVariant struct {
	beam      int  // DP beam width (0 = exact enumeration)
	parallel  bool // plan with forcedParallelMode instead of the declared modes
	compress  bool // every table compressed
	spill     bool // breakers planned as their spill twins (one-byte budget, spilling on), one-byte run quota
	inMemory  bool // spill twins run with the default run quota: the spill variant's reference
	reopt     bool // breakers re-plan at the default misestimation threshold
	identical bool // byte-identical to the plain serial whole-morsel run
}

// latticeQueries is the corpus plus the skewed queries whose misestimates
// trip re-planning.
var latticeQueries = append(append([]string{}, corpusQueries...),
	skewSQL,
	skewSQL+" ORDER BY k",
	"SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < 3 GROUP BY R.A",
)

// latticeMorsels runs from degenerate to whole-relation; the last is the
// reference point's.
var latticeMorsels = []int{1, 7, 1024, 1 << 30}

// workerCounts is the DOP sweep: serial, two workers, and every core.
func workerCounts() []int {
	out := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		out = append(out, n)
	}
	return out
}

// forcedParallelMode returns a deep optimisation mode whose cost model makes
// parallel variants strictly cheaper than serial ones (no fixed fork/merge
// overhead), so even the tiny corpus plans parallel granules.
func forcedParallelMode(dop int) core.Mode {
	m := cost.NewCalibrated()
	m.ParallelFixedNS = 0
	return core.Mode{
		Name: "forced-parallel", Depth: physio.Deep, TrackProbeOrder: true,
		DOP: dop, Model: m,
	}
}

// parallelNodes counts plan nodes carrying a parallel granule choice.
func parallelNodes(p *core.Plan) int {
	n := 0
	p.PreOrder(func(c *core.Plan, _ int) {
		if c.DOP > 1 {
			n++
		}
	})
	return n
}

// oracleAnswer is the naive evaluator's answer to one query, with what the
// comparison needs of the statement.
type oracleAnswer struct {
	rel     *storage.Relation
	sortKey string
	limit   int
}

func oracle(t *testing.T, db *DB, query string) oracleAnswer {
	t.Helper()
	stmt, node := bindQuery(t, db, query)
	rel, err := naive.Execute(node)
	if err != nil {
		t.Fatalf("%q: oracle: %v", query, err)
	}
	return oracleAnswer{rel: rel, sortKey: naive.SortKey(node), limit: stmt.Limit}
}

func bindQuery(t *testing.T, db *DB, query string) (*sql.SelectStmt, logical.Node) {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	node, err := sql.Bind(stmt, catalogView{db})
	if err != nil {
		t.Fatal(err)
	}
	return stmt, node
}

// latticeCounts are the variants' vacuity guards, summed over the points.
type latticeCounts struct {
	parallel, marked, splices, spilled atomic.Int64
}

// latticePoint plans query and runs it at one point; nil when the spill
// variant plans no breaker as its spill twin.
func latticePoint(t *testing.T, db *DB, mode Mode, query string, v latticeVariant, workers, morsel int, n *latticeCounts) *storage.Relation {
	t.Helper()
	var res *core.Result
	var stmt *sql.SelectStmt
	var err error
	var dir string
	if v.spill {
		dir = t.TempDir()
	}
	if v.parallel {
		var node logical.Node
		stmt, node = bindQuery(t, db, query)
		m := forcedParallelMode(workers)
		if v.spill {
			m.MemBudget, m.Spill = 1, true
		}
		res, err = core.Optimize(node, m)
	} else {
		cfg := queryConfig{workers: workers, beam: v.beam}
		if v.spill {
			cfg.memLimit, cfg.spillDir = 1, dir
		}
		res, stmt, err = db.compile(mode, query, cfg, nil)
	}
	if err != nil {
		t.Fatalf("%s/%q: plan: %v", mode, query, err)
	}
	n.parallel.Add(int64(parallelNodes(res.Best)))
	if v.spill {
		twins := 0
		res.Best.PreOrder(func(c *core.Plan, _ int) {
			if c.Spill {
				twins++
			}
		})
		if twins == 0 {
			return nil // no breaker has a spill twin (AV, index or streaming plans)
		}
		n.marked.Add(int64(twins))
	}
	var rc *core.ReoptConfig
	if v.reopt {
		rc = &core.ReoptConfig{Mode: res.Mode}
	}
	root, err := core.CompileReopt(res.Best, rc)
	if err != nil {
		t.Fatalf("%s/%q: compile: %v", mode, query, err)
	}
	if stmt.Limit >= 0 {
		root = exec.NewLimit(root, stmt.Limit)
	}
	ec := exec.NewExecContext(context.Background(), morsel, workers)
	if v.spill {
		ec.SetSpill(dir, 0)
		if !v.inMemory {
			ec.SetSpillQuota(1)
		}
	}
	out, err := exec.Run(ec, root)
	if err != nil {
		t.Fatalf("%s/%q/workers=%d/morsel=%d: run: %v", mode, query, workers, morsel, err)
	}
	if v.spill {
		for _, s := range exec.CollectProfile(root) {
			n.spilled.Add(s.SpillBytes)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("%s/%q: spill directory not cleaned: %d entries, err=%v", mode, query, len(ents), err)
		}
	}
	if rc != nil {
		n.splices.Add(int64(len(rc.Events())))
	}
	return out
}

// runLattice checks every point of variant v and its vacuity guard.
func runLattice(t *testing.T, v latticeVariant) {
	plain := skewDB(t)
	db := plain
	if v.compress {
		db = skewDB(t)
		for _, name := range db.Tables() {
			if err := db.CompressTable(name); err != nil {
				t.Fatal(err)
			}
		}
		desc, err := db.DescribeStorage("")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(desc, "bitpack") && !strings.Contains(desc, "rle") && !strings.Contains(desc, "for") {
			t.Fatalf("no table compressed; the variant is vacuous:\n%s", desc)
		}
	}
	modes := declaredModes
	if v.parallel {
		modes = []Mode{ModeDQOCalibrated} // a label only: the plans come from forcedParallelMode
	}
	var n latticeCounts
	// One parallel subtest per query; the group returns when all are done.
	t.Run(fmt.Sprintf("beam=%d", v.beam), func(t *testing.T) {
		for _, query := range latticeQueries {
			want := oracle(t, plain, query)
			t.Run(query, func(t *testing.T) {
				t.Parallel()
				for _, mode := range modes {
					if v.beam > 0 && mode == ModeGreedy {
						continue // the greedy tier ignores the beam: these are the plain variant's points
					}
					ref := latticePoint(t, plain, mode, query, latticeVariant{beam: v.beam, parallel: v.parallel, spill: v.spill, inMemory: true}, 1, 1<<30, &latticeCounts{})
					for _, workers := range workerCounts() {
						for _, morsel := range latticeMorsels {
							got := latticePoint(t, db, mode, query, v, workers, morsel, &n)
							if got == nil {
								continue
							}
							if err := naive.Check(got, want.rel, want.sortKey, want.limit); err != nil {
								t.Errorf("%s/workers=%d/morsel=%d: %v", mode, workers, morsel, err)
							} else if v.identical && !got.Equal(ref) {
								t.Errorf("%s/workers=%d/morsel=%d: not byte-identical to the serial whole-morsel run\nwant:\n%s\ngot:\n%s",
									mode, workers, morsel, ref, got)
							}
						}
					}
				}
			})
		}
	})
	switch {
	case v.parallel && n.parallel.Load() == 0:
		t.Fatal("no parallel plan node was planned; the variant is vacuous")
	case v.spill && (n.marked.Load() == 0 || n.spilled.Load() == 0):
		t.Fatalf("%d breakers planned as spill twins, %d bytes spilled; the variant is vacuous", n.marked.Load(), n.spilled.Load())
	case v.reopt && n.splices.Load() == 0:
		t.Fatal("no breaker re-planned; the variant is vacuous")
	}
}

// TestMorselDifferential: morsel size and worker count never change a result.
func TestMorselDifferential(t *testing.T) {
	runLattice(t, latticeVariant{identical: true})
}

// TestFastTierResultsMatchPaperMode: beam-capped planning returns the
// oracle's rows. The greedy tier ignores the beam; it is a declared mode of
// every other variant.
func TestFastTierResultsMatchPaperMode(t *testing.T) {
	for _, beam := range []int{1, 2, 8} {
		runLattice(t, latticeVariant{beam: beam})
	}
}

// TestParallelPlanDifferential: parallel granules, forced to win on the tiny
// corpus, are a pure cost dimension.
func TestParallelPlanDifferential(t *testing.T) {
	runLattice(t, latticeVariant{parallel: true, identical: true})
}

// TestSpillDifferential: planned under a one-byte budget with spilling on,
// every breaker that has a disk-backed twin runs as it; forced onto disk, the
// twins return the bytes they return holding their input in memory, and leave
// no run file behind.
func TestSpillDifferential(t *testing.T) {
	runLattice(t, latticeVariant{spill: true, identical: true})
}

// TestCompressedDifferential: compressed tables return the plain tables'
// bytes, morsel boundaries landing mid-run and mid-segment included, exact
// and beam-capped.
func TestCompressedDifferential(t *testing.T) {
	for _, beam := range []int{0, 4} {
		runLattice(t, latticeVariant{compress: true, beam: beam, identical: true})
	}
}

// TestReoptimizeDifferential: mid-query re-planning, spliced or not, returns
// the oracle's rows.
func TestReoptimizeDifferential(t *testing.T) {
	runLattice(t, latticeVariant{reopt: true})
}
