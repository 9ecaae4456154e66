package sql

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/naive"
	"dqo/internal/storage"
)

// The binder's one rewrite, logical.PushFilters, is checked here against an
// oracle that did not see it: the naive evaluator runs the statement as
// written (bindAsWritten: WHERE as one Filter over the whole join tree) and as
// bound (each conjunct on the scan or join it reads), and the two answers must
// be the same row multiset. A wrong placement cannot agree with itself here,
// as it would in a comparison of the engine with the oracle over one tree.

// latticeCatalog holds the tables of the root package's differential lattice
// (its corpus database plus the skewed table), at the same sizes.
func latticeCatalog() mapCatalog {
	r, s := datagen.FKPair(5, datagen.FKConfig{RRows: 1000, SRows: 4500, AGroups: 100, Dense: true})
	ks, vs := make([]uint32, 3000), make([]uint32, 3000)
	for i := range ks {
		ks[i], vs[i] = uint32(i%16), uint32(i)
	}
	return mapCatalog{
		"R": r, "S": s,
		"t": storage.MustNewRelation("t", storage.NewUint32("k", []uint32{2, 1, 2}), storage.NewInt64("v", []int64{10, 20, 30})),
		"orders": storage.MustNewRelation("orders",
			storage.NewString("city", []string{"ber", "par", "ber", "rom", "par", "ber"}),
			storage.NewInt64("amount", []int64{10, 20, 30, 40, 50, 60})),
		"people": storage.MustNewRelation("people", storage.NewUint32("id", []uint32{1, 2, 3}),
			storage.NewString("name", []string{"ada", "bob", "cyd"}), storage.NewFloat64("score", []float64{9.5, 7.25, 8.0})),
		"runs": datagen.CompressRelation("runs", 7, 10_000, 8, 1.2, true),
		"skew": storage.MustNewRelation("skew", storage.NewUint32("k", ks), storage.NewUint32("v", vs)),
	}
}

// latticeCorpus is a copy of the root package's lattice corpus.
var latticeCorpus = []string{
	"SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A",
	"SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A ORDER BY R.A",
	"SELECT ID, A FROM R WHERE A < 10 ORDER BY ID LIMIT 7",
	"SELECT ID FROM R LIMIT 5",
	"SELECT ID FROM R ORDER BY ID LIMIT 2",
	"SELECT k, SUM(v) AS total FROM t GROUP BY k ORDER BY k",
	"SELECT city, SUM(amount) AS total FROM orders GROUP BY city",
	"SELECT name, score FROM people WHERE id = 2",
	"SELECT A, COUNT(*) FROM R WHERE A >= 10 AND A < 30 GROUP BY A ORDER BY A",
	"SELECT R_ID, M FROM S WHERE R_ID < 100 ORDER BY R_ID",
	"SELECT key, SUM(val) AS s FROM runs WHERE key < 3 GROUP BY key ORDER BY key",
	"SELECT key, val FROM runs WHERE key = 5",
	"SELECT k, COUNT(*) FROM skew WHERE v < 2 GROUP BY k",
	"SELECT k, COUNT(*) FROM skew WHERE v < 2 GROUP BY k ORDER BY k",
	"SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < 3 GROUP BY R.A",
}

// starCatalog is the S⋈R⋈D star of the repository benchmark's adhoc-plan
// workload at a tenth of its size, so that nested-loop joins stay quick: R
// 200 rows in 40 groups, S 900 rows, D 50 rows whose keys 40-49 match no row
// of R.
func starCatalog() mapCatalog {
	r, s := datagen.FKPair(42, datagen.FKConfig{RRows: 200, SRows: 900, AGroups: 40, RSorted: true, Dense: true})
	g, w := make([]uint32, 50), make([]int64, 50)
	for i := range g {
		g[i], w[i] = uint32(i), int64(i*37%100)
	}
	return mapCatalog{"R": r, "S": s, "D": storage.MustNewRelation("D", storage.NewUint32("G", g), storage.NewInt64("W", w))}
}

// starFroms are the star's three FROM orders, as adhoc-plan writes them.
var starFroms = []string{
	"S JOIN R ON S.R_ID = R.ID JOIN D ON R.A = D.G",
	"R JOIN S ON R.ID = S.R_ID JOIN D ON R.A = D.G",
	"D JOIN R ON D.G = R.A JOIN S ON R.ID = S.R_ID",
}

// starConjuncts draw one WHERE conjunct each: single-table predicates in both
// operand orders, predicates on every join key, conjuncts over two tables,
// and ORs within one table and across two.
var starConjuncts = []func(r *rand.Rand) string{
	func(r *rand.Rand) string { return fmt.Sprintf("R.A < %d", r.IntN(40)) },
	func(r *rand.Rand) string { return fmt.Sprintf("S.M >= %d", r.IntN(100)) },
	func(r *rand.Rand) string { return fmt.Sprintf("D.W < %d", r.IntN(100)) },
	func(r *rand.Rand) string { return fmt.Sprintf("%d > R.A", r.IntN(40)) },
	func(r *rand.Rand) string { return fmt.Sprintf("%d <= S.M", r.IntN(100)) },
	func(r *rand.Rand) string { return fmt.Sprintf("S.R_ID < %d", r.IntN(200)) },
	func(r *rand.Rand) string { return fmt.Sprintf("R.ID >= %d", r.IntN(200)) },
	func(r *rand.Rand) string { return fmt.Sprintf("D.G <> %d", r.IntN(50)) },
	func(r *rand.Rand) string { return "S.M < R.A" },
	func(r *rand.Rand) string { return "D.W >= S.M" },
	func(r *rand.Rand) string { return fmt.Sprintf("(R.A < %d OR D.W > %d)", r.IntN(40), r.IntN(100)) },
	func(r *rand.Rand) string { return fmt.Sprintf("(S.M < %d OR S.M > %d)", r.IntN(100), r.IntN(100)) },
}

// starTails complete a statement; those with HAVING filter the grouping's
// output, which must stay above it.
var starTails = []struct{ sel, tail string }{
	{"R.A, COUNT(*)", " GROUP BY R.A"},
	{"R.A, COUNT(*), SUM(S.M)", " GROUP BY R.A ORDER BY R.A"},
	{"R.A, COUNT(*), SUM(D.W)", " GROUP BY R.A HAVING count_star >= %d"},
	{"R.ID, S.M, D.W", ""},
	{"R.ID, S.M, D.W", " ORDER BY R.ID"},
}

// bothWays binds query as written and as bound and runs each through the
// naive evaluator.
func bothWays(t *testing.T, query string, cat mapCatalog) (written, bound logical.Node, wantRows, gotRows []string) {
	t.Helper()
	stmt, err := Parse(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	if written, err = bindAsWritten(stmt, cat); err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	if bound, err = Bind(stmt, cat); err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	if err := logical.Validate(bound); err != nil {
		t.Fatalf("%s: %v\n%s", query, err, logical.Format(bound))
	}
	want, err := naive.Execute(written)
	if err != nil {
		t.Fatalf("%s: as written: %v", query, err)
	}
	got, err := naive.Execute(bound)
	if err != nil {
		t.Fatalf("%s: as bound: %v", query, err)
	}
	if !slices.Equal(got.ColumnNames(), want.ColumnNames()) {
		t.Fatalf("%s: columns %v as bound, %v as written", query, got.ColumnNames(), want.ColumnNames())
	}
	return written, bound, naive.Rows(want), naive.Rows(got)
}

// conjunctsOf appends the operands of e's top-level ANDs to out.
func conjunctsOf(out []expr.Expr, e expr.Expr) []expr.Expr {
	if b, ok := e.(expr.Bin); ok && b.Op == expr.OpAnd {
		return conjunctsOf(conjunctsOf(out, b.L), b.R)
	}
	return append(out, e)
}

// whereConjuncts returns, sorted, the conjuncts of every Filter of n but a
// HAVING (a Filter over a grouping), calling at with each and the node it
// filters.
func whereConjuncts(n logical.Node, at func(c expr.Expr, in logical.Node)) []string {
	var out []string
	var walk func(n logical.Node)
	walk = func(n logical.Node) {
		if f, ok := n.(*logical.Filter); ok {
			if _, having := f.Input.(*logical.GroupBy); !having {
				for _, c := range conjunctsOf(nil, f.Pred) {
					out = append(out, c.String())
					at(c, f.Input)
				}
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	slices.Sort(out)
	return out
}

// holdsAll reports whether every name in need is one of n's output columns.
func holdsAll(n logical.Node, need []string) bool {
	cols := n.Columns()
	for _, c := range need {
		if !slices.Contains(cols, c) {
			return false
		}
	}
	return true
}

// checkPlacement asserts that bound carries every WHERE conjunct of written
// exactly once, at the lowest node that holds its columns: on a Scan, or on a
// Join neither of whose inputs holds them all.
func checkPlacement(t *testing.T, query string, written, bound logical.Node) {
	t.Helper()
	want := whereConjuncts(written, func(expr.Expr, logical.Node) {})
	got := whereConjuncts(bound, func(c expr.Expr, in logical.Node) {
		switch in := in.(type) {
		case *logical.Scan:
		case *logical.Join:
			if cols := c.Columns(nil); len(cols) > 0 && (holdsAll(in.Left, cols) || holdsAll(in.Right, cols)) {
				t.Fatalf("%s: %s sits above %s although one of its inputs holds it:\n%s", query, c, in, logical.Format(bound))
			}
		default:
			t.Fatalf("%s: %s filters a %T:\n%s", query, c, in, logical.Format(bound))
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: conjuncts %q as bound, %q as written:\n%s", query, got, want, logical.Format(bound))
	}
}

// TestPushFiltersAgainstWrittenOracle runs the lattice corpus and generated
// WHERE clauses over the star, in all three FROM orders, both ways.
func TestPushFiltersAgainstWrittenOracle(t *testing.T) {
	// check compares the two answers and the placement, and returns how many
	// rows the statement has.
	check := func(query string, cat mapCatalog) int {
		t.Helper()
		written, bound, want, got := bothWays(t, query, cat)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %d rows as bound, %d as written\nbound:\n%swritten:\n%s", query, len(got), len(want), logical.Format(bound), logical.Format(written))
		}
		checkPlacement(t, query, written, bound)
		return len(want)
	}
	lattice := latticeCatalog()
	for _, q := range latticeCorpus {
		check(q, lattice)
	}
	star := starCatalog()
	r := rand.New(rand.NewPCG(24, 42))
	empty := 0
	for _, from := range starFroms {
		for i := 0; i < 60; i++ {
			conjs := make([]string, 1+r.IntN(4))
			for k := range conjs {
				conjs[k] = starConjuncts[r.IntN(len(starConjuncts))](r)
			}
			tail := starTails[r.IntN(len(starTails))]
			query := "SELECT " + tail.sel + " FROM " + from + " WHERE " + strings.Join(conjs, " AND ") + tail.tail
			if strings.Contains(query, "%d") {
				query = fmt.Sprintf(query, 1+r.IntN(20))
			}
			if check(query, star) == 0 {
				empty++
			}
		}
	}
	if empty > 90 {
		t.Fatalf("%d of 180 generated statements return no row; the comparison is vacuous", empty)
	}
}

// TestPushFiltersPlacement pins where each conjunct of one statement lands in
// each FROM order: single-table conjuncts on their scans (two on S ANDed in
// statement order, a literal-first one and a join key's among them), the
// two-table conjunct on the join of its two tables, the OR across R and D on
// the lowest join holding both, and HAVING above the grouping.
func TestPushFiltersPlacement(t *testing.T) {
	const where = " WHERE R.A < 30 AND R.A < S.M AND 50 <= S.M AND (R.A < 5 OR D.W > 90) AND S.R_ID >= 10 AND D.W < 70" +
		" GROUP BY R.A HAVING count_star > 2"
	want := map[string]string{
		starFroms[0]: `Filter((count_star > 2))
  GroupBy(R.A; COUNT(*))
    Filter(((R.A < 5) OR (D.W > 90)))
      Join(R.A = D.G)
        Filter((R.A < S.M))
          Join(S.R_ID = R.ID)
            Filter(((50 <= S.M) AND (S.R_ID >= 10)))
              Scan(S)
            Filter((R.A < 30))
              Scan(R)
        Filter((D.W < 70))
          Scan(D)
`,
		starFroms[1]: `Filter((count_star > 2))
  GroupBy(R.A; COUNT(*))
    Filter(((R.A < 5) OR (D.W > 90)))
      Join(R.A = D.G)
        Filter((R.A < S.M))
          Join(R.ID = S.R_ID)
            Filter((R.A < 30))
              Scan(R)
            Filter(((50 <= S.M) AND (S.R_ID >= 10)))
              Scan(S)
        Filter((D.W < 70))
          Scan(D)
`,
		starFroms[2]: `Filter((count_star > 2))
  GroupBy(R.A; COUNT(*))
    Filter((R.A < S.M))
      Join(R.ID = S.R_ID)
        Filter(((R.A < 5) OR (D.W > 90)))
          Join(D.G = R.A)
            Filter((D.W < 70))
              Scan(D)
            Filter((R.A < 30))
              Scan(R)
        Filter(((50 <= S.M) AND (S.R_ID >= 10)))
          Scan(S)
`,
	}
	star := starCatalog()
	for _, from := range starFroms {
		query := "SELECT R.A, COUNT(*) FROM " + from + where
		_, bound, wantRows, gotRows := bothWays(t, query, star)
		if got := logical.Format(bound); got != want[from] {
			t.Errorf("FROM %s binds to\n%swant\n%s", from, got, want[from])
		}
		if len(wantRows) == 0 || !slices.Equal(gotRows, wantRows) {
			t.Errorf("FROM %s: %d rows as bound, %d as written", from, len(gotRows), len(wantRows))
		}
	}
}
