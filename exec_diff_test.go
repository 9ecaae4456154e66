package dqo

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"dqo/internal/datagen"
)

// corpusDB assembles every table the dqo_test.go corpus queries touch into
// one database: the paper's R/S pair, a builder table, a string-keyed
// table, and a CSV import, plus the AV kinds the planner can exploit.
func corpusDB(t testing.TB) *DB {
	t.Helper()
	db := testDB(t, false, false, true)
	tab := NewTableBuilder("t").
		Uint32("k", []uint32{2, 1, 2}).
		Int64("v", []int64{10, 20, 30}).
		MustBuild()
	if err := db.Register(tab); err != nil {
		t.Fatal(err)
	}
	orders := NewTableBuilder("orders").
		String("city", []string{"ber", "par", "ber", "rom", "par", "ber"}).
		Int64("amount", []int64{10, 20, 30, 40, 50, 60}).
		MustBuild()
	if err := db.Register(orders); err != nil {
		t.Fatal(err)
	}
	people, err := LoadCSV("people", strings.NewReader("id,name,score\n1,ada,9.5\n2,bob,7.25\n3,cyd,8.0\n"), []CSVColumn{
		{"id", Uint32Col}, {"name", StringCol}, {"score", Float64Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(people); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeAV(AVSPH, "R", "ID"); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeAV(AVHashIndex, "S", "R_ID"); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeAV(AVCracked, "R", "A"); err != nil {
		t.Fatal(err)
	}
	// A clustered low-cardinality table: long equal-value runs spanning
	// multiple segments, so the compressed twin of the corpus exercises the
	// RLE run-aware kernels and zone-map segment skipping (and morsel
	// boundaries land mid-run).
	runs := datagen.CompressRelation("runs", 7, 10_000, 8, 1.2, true)
	if err := db.Register(&Table{rel: runs}); err != nil {
		t.Fatal(err)
	}
	return db
}

// corpusQueries is the query corpus from dqo_test.go: joins, groupings,
// sorts, filters, limits, string keys, floats, and AV-answered plans.
var corpusQueries = []string{
	paperSQL,
	paperSQL + " ORDER BY R.A",
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
}

// bigSeqDB registers a table large enough that the calibrated model picks a
// parallel filter pipe through the public facade.
func bigSeqDB(t testing.TB, n int) *DB {
	t.Helper()
	ids, groups := make([]uint32, n), make([]uint32, n)
	vals := make([]int64, n)
	for i := range ids {
		ids[i], groups[i] = uint32(i), uint32(i%97)
		vals[i] = int64(i % 97)
	}
	db := Open()
	tab := NewTableBuilder("big").Uint32("id", ids).Int64("v", vals).Uint32("g", groups).MustBuild()
	if err := db.Register(tab); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestLimitUnderParallelPipeline is the LIMIT regression through the full
// query path: an early-exit LIMIT over a parallel filter pipe must return
// the exact order-preserved prefix the serial plan returns, at degenerate
// and regular morsel sizes, and must cancel the in-flight sibling morsels
// rather than scanning the table to the end.
func TestLimitUnderParallelPipeline(t *testing.T) {
	const n = 200_000
	db := bigSeqDB(t, n)
	query := "SELECT id FROM big WHERE v >= 0 LIMIT 10"
	for _, morsel := range []int{1, 7, 1024} {
		for _, workers := range []int{2, 8} {
			res, err := db.Query(context.Background(), ModeDQOCalibrated, query,
				WithWorkers(workers), WithMorselSize(morsel))
			if err != nil {
				t.Fatalf("morsel=%d workers=%d: %v", morsel, workers, err)
			}
			ids, err := res.Uint32Column("big.id")
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 10 {
				t.Fatalf("morsel=%d workers=%d: %d rows, want 10", morsel, workers, len(ids))
			}
			for i, id := range ids {
				if id != uint32(i) {
					t.Fatalf("morsel=%d workers=%d: row %d = id %d; prefix not order-preserved", morsel, workers, i, id)
				}
			}
			// Early exit: the scan must have stopped within the pipe's
			// claim window of the limit, nowhere near all n rows.
			for _, s := range res.Stats() {
				if strings.HasPrefix(s.Label, "Scan") && s.RowsOut > int64(n/2) {
					t.Fatalf("morsel=%d workers=%d: scanned %d of %d rows after LIMIT 10:\n%s",
						morsel, workers, s.RowsOut, n, res.StatsString())
				}
			}
		}
	}
}

// TestParallelQueryCancellation cancels a parallel query mid-flight and
// checks the workers unwind without leaking goroutines.
func TestParallelQueryCancellation(t *testing.T) {
	db := bigSeqDB(t, 500_000)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
		_, err := db.Query(ctx, ModeDQOCalibrated,
			"SELECT g, COUNT(*) FROM big WHERE v >= 1 GROUP BY g",
			WithWorkers(8), WithMorselSize(512))
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: got %v, want nil or deadline/cancel", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked under parallel cancellation: %d -> %d", before, g)
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db := corpusDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(ctx, ModeDQO, paperSQL); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A live context behaves exactly like a background one.
	res, err := db.Query(context.Background(), ModeDQO, paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 100 {
		t.Fatalf("%d rows", res.NumRows())
	}
}

// TestStatsCoverFigure5Plan is the acceptance check for the execution
// profile: every operator in the paper's Figure 5 query plan must report
// rows produced and nonzero wall time.
func TestStatsCoverFigure5Plan(t *testing.T) {
	db := testDB(t, false, false, true)
	res, err := db.Query(context.Background(), ModeDQO, paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats()
	if len(stats) < 4 {
		t.Fatalf("profile has %d operators, want scan+scan+join+group at least:\n%s", len(stats), res.StatsString())
	}
	if stats[0].Depth != 0 {
		t.Fatalf("profile not in pre-order: %+v", stats[0])
	}
	for _, s := range stats {
		if s.RowsOut == 0 {
			t.Errorf("operator %q reports zero rows out", s.Label)
		}
		if s.Wall == 0 {
			t.Errorf("operator %q reports zero wall time", s.Label)
		}
		if s.Batches == 0 {
			t.Errorf("operator %q reports zero batches", s.Label)
		}
		if s.Self < 0 || s.Self > s.Wall {
			t.Errorf("operator %q: self %v outside [0, wall=%v]", s.Label, s.Self, s.Wall)
		}
	}
	text := res.StatsString()
	for _, want := range []string{"operator", "rows_out", "wall"} {
		if !strings.Contains(text, want) {
			t.Fatalf("StatsString missing %q:\n%s", want, text)
		}
	}
}

func TestQueryContextTimeout(t *testing.T) {
	db := testDB(t, false, false, true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	if _, err := db.Query(ctx, ModeDQO, paperSQL); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}
