package dqo

import (
	"context"
	"errors"
	"os"
	"testing"

	"dqo/internal/naive"
)

// spillJoinDB registers two n-row tables with nearly disjoint distinct keys
// plus a small planted overlap: the build-side hash table dominates
// in-memory residency while the join output stays tiny — the query shape
// where spilling beats aborting.
func spillJoinDB(t testing.TB, n int) *DB {
	t.Helper()
	mk := func(seed uint32) []uint32 {
		keys := make([]uint32, n)
		x := seed | 1
		for i := range keys {
			x = x*1664525 + 1013904223
			keys[i] = x
		}
		return keys
	}
	rk, sk := mk(3), mk(9)
	copy(sk[:32], rk[:32]) // planted matches so the join output is nonempty
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	db := Open()
	for name, keys := range map[string][]uint32{"bigr": rk, "bigs": sk} {
		tab := NewTableBuilder(name).Uint32("key", keys).Int64("val", vals).MustBuild()
		if err := db.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSpillCompletesPreviouslyAbortingQuery is the issue's acceptance
// scenario, driven entirely through the public API: find a memory limit
// where the query aborts with ErrMemoryBudgetExceeded, then run it again at
// that exact limit with WithSpillDir — it must complete with nonzero
// SpilledBytes and the same rows as the unlimited baseline, and a tiny
// WithSpillLimit must instead fail with the typed ErrSpillLimitExceeded.
func TestSpillCompletesPreviouslyAbortingQuery(t *testing.T) {
	db := spillJoinDB(t, 120_000)
	const query = "SELECT * FROM bigr JOIN bigs ON bigr.key = bigs.key"
	ctx := context.Background()

	baseline, err := db.Query(ctx, ModeDQOCalibrated, query)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.NumRows() == 0 {
		t.Fatal("planted matches missing; the scenario would be vacuous")
	}

	// Descend on the measured high-water mark until the runtime budget
	// aborts the query: each rung's limit sits just below the previous
	// successful run's peak.
	limit := int64(64 << 20)
	var abortLimit int64
	for rung := 0; rung < 16; rung++ {
		res, err := db.Query(ctx, ModeDQOCalibrated, query, WithMemoryLimit(limit))
		if err != nil {
			if !errors.Is(err, ErrMemoryBudgetExceeded) {
				t.Fatalf("limit=%d: got %v, want ErrMemoryBudgetExceeded", limit, err)
			}
			abortLimit = limit
			break
		}
		next := res.PeakBytes() - 1
		if next <= 0 || next >= limit {
			t.Fatalf("descent stuck: peak %d at limit %d", res.PeakBytes(), limit)
		}
		limit = next
	}
	if abortLimit == 0 {
		t.Fatal("descent never found an aborting memory limit")
	}

	// Same budget, spilling armed: the query that just aborted completes.
	dir := t.TempDir()
	res, err := db.Query(ctx, ModeDQOCalibrated, query,
		WithMemoryLimit(abortLimit), WithSpillDir(dir))
	if err != nil {
		t.Fatalf("spill run at the aborting limit %d failed: %v", abortLimit, err)
	}
	if res.SpilledBytes() == 0 {
		t.Fatalf("query completed at limit %d without touching disk; scenario is vacuous", abortLimit)
	}
	got, want := naive.Rows(res.rel), naive.Rows(baseline.rel)
	if len(got) != len(want) {
		t.Fatalf("spilled run returned %d rows, baseline %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs:\nspilled:  %s\nbaseline: %s", i, got[i], want[i])
		}
	}
	if ents, rdErr := os.ReadDir(dir); rdErr != nil || len(ents) != 0 {
		t.Fatalf("run files left behind: %d entries, err=%v", len(ents), rdErr)
	}

	// Same budget again, but a disk cap too small for the partitions: the
	// typed spill-limit error, not a silent fallback.
	_, err = db.Query(ctx, ModeDQOCalibrated, query,
		WithMemoryLimit(abortLimit), WithSpillDir(dir), WithSpillLimit(32<<10))
	if !errors.Is(err, ErrSpillLimitExceeded) {
		t.Fatalf("32KiB disk cap: got %v, want ErrSpillLimitExceeded", err)
	}
	if ents, rdErr := os.ReadDir(dir); rdErr != nil || len(ents) != 0 {
		t.Fatalf("capped run leaked files: %d entries, err=%v", len(ents), rdErr)
	}
}
