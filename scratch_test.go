package dqo

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dqo/internal/naive"
	"dqo/internal/storage"
)

// viewRootQueries are statements whose result is a view of an intermediate
// the query drew from its scratch arena, not a copy of it: a sort whose input
// is already in key order passes it through, a LIMIT keeps a prefix of a
// breaker's output, a projection keeps columns of a join's output, and a
// filter over a scan of one morsel hands out its gathered batch.
var viewRootQueries = []string{
	"SELECT A, COUNT(*) FROM R GROUP BY A ORDER BY A",
	"SELECT A, COUNT(*) FROM R GROUP BY A ORDER BY A LIMIT 5",
	"SELECT R.ID, S.M FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < 20",
	"SELECT ID, A FROM R WHERE A < 50",
}

// TestResultOutlivesLaterQueries holds the unread results of the lattice
// corpus and of the view-shaped roots, runs the corpus again — concurrently,
// so that later queries recycle their scratch and draw the recycled arrays —
// and only then reads every held result through ColumnAt and Scan. A query
// that recycled an array its result still views answers wrongly here.
func TestResultOutlivesLaterQueries(t *testing.T) {
	queries := append(append([]string{}, latticeQueries...), viewRootQueries...)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ctx := context.Background()
			db := skewDB(t)
			type held struct {
				what string
				res  *Result
				want oracleAnswer
			}
			var hold []held
			for _, q := range queries {
				want := oracle(t, db, q)
				for _, mode := range declaredModes {
					res, err := db.Query(ctx, mode, q)
					if err != nil {
						t.Fatalf("%s %q: %v", mode, q, err)
					}
					hold = append(hold, held{fmt.Sprintf("%s %q", mode, q), res, want})
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i, q := range queries {
						mode := declaredModes[(i+w)%len(declaredModes)]
						if _, err := db.Query(ctx, mode, q); err != nil {
							errs <- fmt.Errorf("%s %q: %w", mode, q, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for _, h := range hold {
				got, err := readResult(h.res)
				if err == nil {
					err = naive.Check(got, h.want.rel, h.want.sortKey, h.want.limit)
				}
				if err != nil {
					t.Errorf("%s, read after later queries: %v", h.what, err)
				}
			}
		})
	}
}

// readResult reads a result through its public surfaces: the columns
// through ColumnAt, and every row through Next and Scan, which must agree
// with them.
func readResult(res *Result) (*storage.Relation, error) {
	names := res.Columns()
	cols := make([]*storage.Column, len(names))
	for i := range names {
		c := res.ColumnAt(i)
		switch {
		case c.Uint32s != nil:
			cols[i] = storage.NewUint32(c.Name, c.Uint32s)
		case c.Uint64s != nil:
			cols[i] = storage.NewUint64(c.Name, c.Uint64s)
		case c.Int64s != nil:
			cols[i] = storage.NewInt64(c.Name, c.Int64s)
		case c.Float64s != nil:
			cols[i] = storage.NewFloat64(c.Name, c.Float64s)
		default:
			vals := make([]string, len(c.Codes))
			for j, code := range c.Codes {
				vals[j] = c.Dict[code]
			}
			cols[i] = storage.NewString(c.Name, vals)
		}
	}
	rel, err := storage.NewRelation("result", cols...)
	if err != nil {
		return nil, err
	}
	row := make([]any, len(names))
	dest := make([]any, len(names))
	for i := range row {
		dest[i] = &row[i]
	}
	for i := 0; res.Next(); i++ {
		if err := res.Scan(dest...); err != nil {
			return nil, err
		}
		for j, c := range rel.Columns() {
			if want := c.ValueAt(i); fmt.Sprint(row[j]) != want.String() {
				return nil, fmt.Errorf("row %d column %q: Scan read %v, ColumnAt %v", i, c.Name(), row[j], want)
			}
		}
	}
	return rel, nil
}

// TestStarQueryScratchBytes bounds what BenchmarkEndToEndSQL's star
// statement under DQO allocates per query once the scratch pools are warm:
// planning, the operator tree, and the result, while the intermediate
// columns come back from the pools. Runs on a 2-vCPU machine (Go 1.24)
// measured 132–247 KB per query; the bound is 400 KB, 1.6 times the worst. The statement allocated 3.25 MB before the query's intermediates
// were drawn from its scratch arena.
func TestStarQueryScratchBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	db := endToEndDB(t)
	ctx := context.Background()
	query := func() {
		if _, err := db.Query(ctx, ModeDQO, starSQL); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		query()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("star statement: %d B/query", got)
	if got > 400_000 {
		t.Fatalf("star statement allocates %d B/query, want at most 400 000", got)
	}
}
