package dqo

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dqo/internal/storage"
)

// statsOnceDB registers T(K, G, V, F) and D(G, W) — five integer columns the
// star query below makes the planner read, one float column it never asks
// about — plus a table U that no query touches. Nothing declares statistics,
// so every one the planner uses has to be computed from the data.
func statsOnceDB(t testing.TB) *DB {
	t.Helper()
	const n, groups = 20000, 100
	k, g := make([]uint32, n), make([]uint32, n)
	v, f := make([]int64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = uint32((i * 7919) % n)
		g[i] = uint32(i % groups)
		v[i] = int64(i % 1000)
		f[i] = float64(i) / 2
	}
	dg, dw := make([]uint32, groups), make([]int64, groups)
	for i := range dg {
		dg[i] = uint32(i)
		dw[i] = int64(i % 7)
	}
	db := Open()
	db.EnablePlanCache(false)
	for _, tb := range []*Table{
		NewTableBuilder("T").Uint32("K", k).Uint32("G", g).Int64("V", v).Float64("F", f).MustBuild(),
		NewTableBuilder("D").Uint32("G", dg).Int64("W", dw).MustBuild(),
		NewTableBuilder("U").Uint32("K", k).MustBuild(),
	} {
		if err := db.Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// statsOnceColumns is how many columns of statsOnceDB the star query plans
// over: the integer columns of T and D.
const statsOnceColumns = 5

func statsOnceSQL(lit int) string {
	return fmt.Sprintf("SELECT T.G, COUNT(*), SUM(D.W) FROM T JOIN D ON T.G = D.G WHERE T.V < %d GROUP BY T.G ORDER BY T.G", lit)
}

// TestStatsComputedOncePerColumn: with the plan cache off every query binds
// fresh views of the registered tables and plans from scratch, yet the
// tables' statistics are computed on the first query only, once per column
// the planner reads — whatever the mode, and neither for untouched tables nor
// for intermediate results.
func TestStatsComputedOncePerColumn(t *testing.T) {
	db := statsOnceDB(t)
	ctx := context.Background()
	before := storage.StatsComputations()
	if _, err := db.Query(ctx, ModeDQO, statsOnceSQL(500)); err != nil {
		t.Fatal(err)
	}
	if got := storage.StatsComputations() - before; got != statsOnceColumns {
		t.Fatalf("first query computed statistics %d times, want once per planned column (%d)", got, statsOnceColumns)
	}
	for i, mode := range []Mode{ModeDQO, ModeSQO, ModeDQOCalibrated, ModeGreedy, ModeDQO, ModeSQO} {
		res, err := db.Query(ctx, mode, statsOnceSQL(100+100*i))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.NumRows() != 100 {
			t.Fatalf("%s: %d groups, want 100", mode, res.NumRows())
		}
	}
	if got := storage.StatsComputations() - before; got != statsOnceColumns {
		t.Fatalf("%d statistics computations after 7 cache-off queries, want %d", got, statsOnceColumns)
	}
}

// TestStatsComputedOnceConcurrently: the first queries on a fresh table
// arriving together still compute each column once (run under -race).
func TestStatsComputedOnceConcurrently(t *testing.T) {
	db := statsOnceDB(t)
	const workers = 8
	before := storage.StatsComputations()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := db.Query(context.Background(), ModeDQO, statsOnceSQL(100+100*w))
			if err == nil && res.NumRows() != 100 {
				err = fmt.Errorf("%d groups, want 100", res.NumRows())
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := storage.StatsComputations() - before; got != statsOnceColumns {
		t.Fatalf("%d concurrent first queries computed statistics %d times, want %d", workers, got, statsOnceColumns)
	}
}
