package dqo

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPrepareBasics pins the prepared-statement contract: a "?" parameter
// binds per execution, and each execution matches the equivalent concrete
// query byte for byte.
func TestPrepareBasics(t *testing.T) {
	db := testDB(t, false, false, true)
	stmt, err := db.Prepare(ModeDQOCalibrated,
		"SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < ? GROUP BY R.A ORDER BY R.A")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
	}
	if stmt.Mode() != ModeDQOCalibrated || !strings.Contains(stmt.SQL(), "?") {
		t.Fatalf("metadata wrong: mode %v, sql %q", stmt.Mode(), stmt.SQL())
	}
	for _, bound := range []int{5, 30, 77} {
		got, err := stmt.Query(context.Background(), bound)
		if err != nil {
			t.Fatalf("Query(%d): %v", bound, err)
		}
		want, err := db.Query(context.Background(), ModeDQOCalibrated,
			strings.Replace(stmt.SQL(), "?", strconv.Itoa(bound), 1))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("Query(%d) differs from concrete query:\nwant:\n%s\ngot:\n%s",
				bound, want.String(), got.String())
		}
	}
}

// TestPrepareValidation: names are checked at Prepare, argument counts and
// types at execution.
func TestPrepareValidation(t *testing.T) {
	db := testDB(t, false, false, true)
	if _, err := db.Prepare(ModeDQO, "SELECT nope FROM R WHERE A = ?"); err == nil {
		t.Fatal("unknown column accepted at Prepare")
	}
	if _, err := db.Prepare(Mode(99), "SELECT ID FROM R"); err == nil {
		t.Fatal("unknown mode accepted at Prepare")
	}
	stmt, err := db.Prepare(ModeDQO, "SELECT ID FROM R WHERE A < ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(context.Background()); err == nil {
		t.Fatal("missing argument accepted")
	}
	if _, err := stmt.Query(context.Background(), 1, 2); err == nil {
		t.Fatal("extra argument accepted")
	}
	if _, err := stmt.Query(context.Background(), []byte("x")); err == nil {
		t.Fatal("unsupported argument type accepted")
	}
	// A parameterised statement cannot run through the plain Query path.
	if _, err := db.Query(context.Background(), ModeDQO, "SELECT ID FROM R WHERE A < ?"); err == nil {
		t.Fatal("unbound parameter accepted by Query")
	}
}

// TestPreparedPlansOnce: executions of one prepared statement share a plan
// template — one miss, then hits — even when the DB-level cache is off.
func TestPreparedPlansOnce(t *testing.T) {
	db := testDB(t, false, false, true)
	stmt, err := db.Prepare(ModeDQOCalibrated, "SELECT ID FROM R WHERE A = ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, arg := range []int{3, 7, 50, 11} {
		if _, err := stmt.Query(context.Background(), arg); err != nil {
			t.Fatalf("Query(%d): %v", arg, err)
		}
	}
	hits, misses := db.PlanCacheStats()
	if misses != 1 || hits != 3 {
		t.Fatalf("plan cache = %d hits / %d misses, want 3/1", hits, misses)
	}
	// A template hit enumerates nothing.
	before := db.Metrics().OptimizerAlternatives
	if _, err := stmt.Query(context.Background(), 42); err != nil {
		t.Fatal(err)
	}
	if after := db.Metrics().OptimizerAlternatives; after != before {
		t.Fatalf("prepared repeat enumerated %d alternatives, want 0", after-before)
	}
}

// TestPreparedConcurrent executes one statement from many goroutines with
// different arguments; results must stay argument-correct (no cross-talk
// through the shared template).
func TestPreparedConcurrent(t *testing.T) {
	db := testDB(t, false, false, true)
	stmt, err := db.Prepare(ModeDQOCalibrated,
		"SELECT A, COUNT(*) FROM R WHERE A < ? GROUP BY A")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				want := 1 + (w*10+i)%40
				res, err := stmt.Query(context.Background(), want)
				if err != nil {
					errc <- err
					return
				}
				if res.NumRows() != want {
					errc <- errRows{want, res.NumRows()}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

type errRows struct{ want, got int }

func (e errRows) Error() string {
	return "prepared result has " + strconv.Itoa(e.got) + " rows, want " + strconv.Itoa(e.want)
}

// TestStringArgsAndFloats covers the remaining literal kinds through the
// parameter binder.
func TestStringArgsAndFloats(t *testing.T) {
	tab := NewTableBuilder("p").
		Uint32("id", []uint32{1, 2, 3}).
		String("name", []string{"ada", "bob", "cyd"}).
		Float64("score", []float64{9.5, 7.25, 8.0}).
		MustBuild()
	db := Open()
	if err := db.Register(tab); err != nil {
		t.Fatal(err)
	}
	byName, err := db.Prepare(ModeDQO, "SELECT id FROM p WHERE name = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := byName.Query(context.Background(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := res.Uint32Column("p.id")
	if err != nil || len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("ids = %v, %v", ids, err)
	}
	byScore, err := db.Prepare(ModeDQO, "SELECT id FROM p WHERE score > ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err = byScore.Query(context.Background(), 8.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("%d rows, want 1 (only ada scores > 8.5)", res.NumRows())
	}
}

// TestResultIterator drives the Columns/Next/Scan streaming surface.
func TestResultIterator(t *testing.T) {
	db := testDB(t, true, true, true)
	res, err := db.Query(context.Background(), ModeDQO,
		"SELECT ID, A FROM R WHERE A < 10 ORDER BY ID LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Scan(new(uint32), new(uint32)); err == nil {
		t.Fatal("Scan before Next accepted")
	}
	var (
		n      int
		lastID uint32
	)
	for res.Next() {
		var id, a uint32
		if err := res.Scan(&id, &a); err != nil {
			t.Fatal(err)
		}
		if n > 0 && id < lastID {
			t.Fatalf("rows out of order: %d after %d", id, lastID)
		}
		if a >= 10 {
			t.Fatalf("filter violated: A = %d", a)
		}
		lastID = id
		n++
	}
	if n != res.NumRows() || n != 7 {
		t.Fatalf("iterated %d rows, want %d", n, res.NumRows())
	}
	if res.Next() {
		t.Fatal("Next after exhaustion")
	}

	// Destination validation.
	res2, err := db.Query(context.Background(), ModeDQO, "SELECT ID FROM R LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	res2.Next()
	if err := res2.Scan(new(uint32), new(uint32)); err == nil {
		t.Fatal("wrong destination count accepted")
	}
	if err := res2.Scan(new(int64)); err == nil {
		t.Fatal("wrong destination type accepted")
	}
	var anyCell any
	if err := res2.Scan(&anyCell); err != nil {
		t.Fatal(err)
	}
	if _, ok := anyCell.(uint32); !ok {
		t.Fatalf("*any destination got %T", anyCell)
	}
	var asString string
	res3, _ := db.Query(context.Background(), ModeDQO, "SELECT ID FROM R LIMIT 1")
	res3.Next()
	if err := res3.Scan(&asString); err != nil || asString == "" {
		t.Fatalf("string destination: %q, %v", asString, err)
	}

	// A failed query's iterator is empty and Scan reports the failure.
	bad, _ := db.Query(context.Background(), ModeDQO, "SELECT ID FROM R LIMIT 1")
	bad.rel = nil
	if bad.Next() {
		t.Fatal("Next on failed result")
	}
}

// versionedR builds table R in one of two versions that no query can
// confuse: version v holds n rows with ID = v*1000 + i and A = i % 10, and
// version 2 also carries a column the first does not, ahead of the others.
func versionedR(v, n int) *Table {
	id, a, extra := make([]uint32, n), make([]uint32, n), make([]int64, n)
	for i := range id {
		id[i], a[i], extra[i] = uint32(v*1000+i), uint32(i%10), int64(-i)
	}
	b := NewTableBuilder("R")
	if v == 2 {
		b = b.Int64("EXTRA", extra)
	}
	return b.Uint32("ID", id).Uint32("A", a).MustBuild()
}

// idsOf runs the statement and returns which table version answered (every
// ID / 1000, which must agree) and how many rows it returned.
func idsOf(t *testing.T, stmt *Stmt, arg int) (version, rows int) {
	t.Helper()
	res, err := stmt.Query(context.Background(), arg)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := res.Uint32Column("R.ID")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if v := int(id / 1000); i > 0 && v != version {
			t.Fatalf("one result mixes table versions %d and %d", version, v)
		} else {
			version = v
		}
	}
	return version, len(ids)
}

// TestPreparedStatementFollowsTheCatalog: what a statement computed once is
// dropped when the table it binds to changes. After a re-Register with other
// data and other columns, and after CompressTable, the next execution
// answers from the table as it is now; when the statement no longer fits the
// table it fails with the binder's error and recovers when the table does.
func TestPreparedStatementFollowsTheCatalog(t *testing.T) {
	for _, cache := range []bool{false, true} {
		db := Open()
		db.EnablePlanCache(cache)
		if err := db.Register(versionedR(1, 100)); err != nil {
			t.Fatal(err)
		}
		stmt, err := db.Prepare(ModeDQOCalibrated, "SELECT ID FROM R WHERE A = ?")
		if err != nil {
			t.Fatal(err)
		}
		if v, n := idsOf(t, stmt, 3); v != 1 || n != 10 {
			t.Fatalf("version %d, %d rows; want 1, 10", v, n)
		}

		if err := db.Register(versionedR(2, 250)); err != nil {
			t.Fatal(err)
		}
		if v, n := idsOf(t, stmt, 3); v != 2 || n != 25 {
			t.Fatalf("after re-Register: version %d, %d rows; want 2, 25", v, n)
		}

		if err := db.CompressTable("R"); err != nil {
			t.Fatal(err)
		}
		if v, n := idsOf(t, stmt, 4); v != 2 || n != 25 {
			t.Fatalf("after CompressTable: version %d, %d rows; want 2, 25", v, n)
		}
		if plan, err := db.Explain(ModeDQOCalibrated, "SELECT ID FROM R WHERE A = 4"); err != nil || !strings.Contains(plan, "Compressed") {
			t.Fatalf("the compressed table is not planned as one (err %v):\n%s", err, plan)
		}

		// A table without the statement's column: a clean error, no stale answer.
		noA := NewTableBuilder("R").Uint32("ID", []uint32{1, 2, 3}).MustBuild()
		if err := db.Register(noA); err != nil {
			t.Fatal(err)
		}
		if _, err := stmt.Query(context.Background(), 3); err == nil || !strings.Contains(err.Error(), `unknown column "A"`) {
			t.Fatalf("statement over a table without its column: err = %v", err)
		}
		if err := db.Register(versionedR(1, 100)); err != nil {
			t.Fatal(err)
		}
		if v, n := idsOf(t, stmt, 3); v != 1 || n != 10 {
			t.Fatalf("after the column came back: version %d, %d rows; want 1, 10", v, n)
		}
	}
}

// TestPreparedConcurrentWithReRegister: executions of one Stmt from many
// goroutines while the table is replaced under them. Every result comes
// whole from one version of the table (run under -race).
func TestPreparedConcurrentWithReRegister(t *testing.T) {
	db := Open()
	if err := db.Register(versionedR(1, 100)); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(ModeDQOCalibrated, "SELECT ID FROM R WHERE A = ?")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var executed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := stmt.Query(context.Background(), (g+i)%10)
				if err != nil {
					t.Error(err)
					return
				}
				executed.Add(1)
				ids, _ := res.Uint32Column("R.ID")
				want := map[uint32]int{1: 10, 2: 25}[ids[0]/1000]
				if len(ids) != want {
					t.Errorf("%d rows from version %d, want %d", len(ids), ids[0]/1000, want)
					return
				}
				for _, id := range ids {
					if id/1000 != ids[0]/1000 {
						t.Errorf("one result mixes table versions")
						return
					}
				}
			}
		}(g)
	}
	// Replace the table until the executions have crossed many replacements.
	for i := 0; i < 40 || (executed.Load() < 4000 && !t.Failed()); i++ {
		if err := db.Register(versionedR(1+i%2, []int{100, 250}[i%2])); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			if err := db.CompressTable("R"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Register(versionedR(2, 250)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	// Nobody is left on a replaced table.
	if v, n := idsOf(t, stmt, 3); v != 2 || n != 25 {
		t.Fatalf("after the churn: version %d, %d rows; want 2, 25", v, n)
	}
}

// TestStmtFingerprintIsComputedOnce: Fingerprint hands out the string made
// at Prepare.
func TestStmtFingerprintIsComputedOnce(t *testing.T) {
	db := testDB(t, false, false, true)
	stmt, err := db.Prepare(ModeDQOCalibrated, "SELECT ID FROM R WHERE A = ? AND ID < ?")
	if err != nil {
		t.Fatal(err)
	}
	want := "dqo-calibrated|SELECT ID FROM R WHERE ((A = ?) AND (ID < ?))"
	if got := stmt.Fingerprint(); got != want {
		t.Fatalf("Fingerprint = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = stmt.Fingerprint() }); n != 0 {
		t.Fatalf("Fingerprint allocates %v times per call", n)
	}
}

// TestPreparedFiltersOnBothJoinSides: a statement with a parameter on each
// side of a join, each conjunct bound onto the scan it reads, hits its
// template from the second execution on in either FROM order, enumerates
// nothing there, and always returns what the concrete statement returns.
func TestPreparedFiltersOnBothJoinSides(t *testing.T) {
	ctx := context.Background()
	for _, from := range []string{"R JOIN S ON R.ID = S.R_ID", "S JOIN R ON S.R_ID = R.ID"} {
		db := testDB(t, false, false, true)
		text := "SELECT R.A, COUNT(*), SUM(S.M) FROM " + from + " WHERE R.A < ? AND S.M >= ? GROUP BY R.A ORDER BY R.A"
		stmt, err := db.Prepare(ModeDQOCalibrated, text)
		if err != nil {
			t.Fatal(err)
		}
		for i, args := range [][2]int{{30, 10}, {77, 0}, {5, 90}, {100, 50}, {0, 0}} {
			hits, misses := db.PlanCacheStats()
			alts := db.Metrics().OptimizerAlternatives
			got, err := stmt.Query(ctx, args[0], args[1])
			if err != nil {
				t.Fatalf("%s: Query%v: %v", from, args, err)
			}
			h, m := db.PlanCacheStats()
			if i > 0 && (h != hits+1 || m != misses || db.Metrics().OptimizerAlternatives != alts) {
				t.Fatalf("%s: execution %d missed its template (hits %d → %d, misses %d → %d)", from, i+1, hits, h, misses, m)
			}
			concrete := strings.Replace(strings.Replace(text, "?", strconv.Itoa(args[0]), 1), "?", strconv.Itoa(args[1]), 1)
			want, err := db.Query(ctx, ModeDQOCalibrated, concrete)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("%s: Query%v differs from the concrete statement:\nwant:\n%s\ngot:\n%s", from, args, want, got)
			}
			if i == 1 && got.NumRows() == 0 {
				t.Fatalf("%s: Query%v returned no row; the comparison is vacuous", from, args)
			}
			if plan := got.PlanExplain(); strings.Index(plan, "Filter(") < strings.Index(plan, "J(") {
				t.Fatalf("%s: a filter runs above the join:\n%s", from, plan)
			}
		}
	}
}
