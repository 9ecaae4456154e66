package physical

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/qerr"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// TestJoinBudgetIsExact: the probe-major joins reserve their build side
// before building it and their pair arrays once, at the exact size, before
// filling them. A budget of exactly that sum runs; one byte less fails with
// the typed budget error naming the operator; both leave nothing reserved.
func TestJoinBudgetIsExact(t *testing.T) {
	r, s := datagen.FKPair(9, datagen.FKConfig{RRows: 3000, SRows: 20000, AGroups: 100, Dense: true})
	left, right := r.MustColumn("ID").Uint32s(), s.MustColumn("R_ID").Uint32s()
	dom := domainOf(r, "ID")
	pairs := int64(len(right)) * 8 // FK join: one pair per S row, 4 B per side
	cases := []struct {
		kind JoinKind
		opt  JoinOptions
		need int64
	}{
		{HJ, JoinOptions{Hash: hashtable.Murmur3Fin}, hashtable.MultiBytes(len(left)) + pairs},
		{SPHJ, JoinOptions{}, hashtable.SPHBytes(len(left), len(left)) + pairs},
		{SPHJ, JoinOptions{Parallel: 4}, hashtable.SPHBytes(len(left), len(left)) + pairs},
		{BSJ, JoinOptions{Sort: sortx.Radix}, int64(len(left))*8 + pairs},
	}
	for _, tc := range cases {
		for _, short := range []int64{0, 1} {
			mem := govern.NewBudget(tc.need - short)
			opt := tc.opt
			opt.Ctl = (&govern.Ctl{Ctx: context.Background(), Mem: mem}).For("Join(test)")
			res, err := Join(tc.kind, left, right, dom, opt)
			switch {
			case short == 0 && (err != nil || res.Len() != len(right)):
				t.Fatalf("%s dop %d: budget of exactly %d bytes: %v", tc.kind, tc.opt.Parallel, tc.need, err)
			case short == 1 && !errors.Is(err, qerr.ErrMemoryBudgetExceeded):
				t.Fatalf("%s dop %d: budget one byte short: err = %v, want ErrMemoryBudgetExceeded", tc.kind, tc.opt.Parallel, err)
			case short == 1 && !strings.Contains(err.Error(), "Join(test)"):
				t.Fatalf("%s: budget error does not name the operator: %v", tc.kind, err)
			}
			if mem.Used() != 0 {
				t.Fatalf("%s dop %d (short %d): %d bytes still reserved", tc.kind, tc.opt.Parallel, short, mem.Used())
			}
			if short == 0 && mem.Peak() != tc.need {
				t.Fatalf("%s dop %d: peak reservation %d, want %d", tc.kind, tc.opt.Parallel, mem.Peak(), tc.need)
			}
		}
	}
}

// TestMergeJoinBudgetFollowsMatches: OJ grows its pair arrays as it finds
// matches, so a selective merge join — a small side against a large one —
// reserves in proportion to its matches, not to its inputs. A budget of four
// times the exact pair bytes runs; it is a fraction of what arrays sized for
// the larger input would take.
func TestMergeJoinBudgetFollowsMatches(t *testing.T) {
	const n, matches = 200_000, 3*checkEvery + 5
	left := make([]uint32, 0, n/4) // even keys
	for k := uint32(0); len(left) < n/4; k += 2 {
		left = append(left, k)
	}
	right := make([]uint32, 0, n) // odd keys, and every 2nd left key up to matches
	for k := uint32(1); len(right) < n-matches; k += 2 {
		right = append(right, k)
	}
	for i := 0; i < matches; i++ {
		right = append(right, left[2*i])
	}
	slices.Sort(right)
	pairs := int64(matches) * 8
	mem := govern.NewBudget(4 * pairs)
	opt := JoinOptions{Ctl: &govern.Ctl{Ctx: context.Background(), Mem: mem}}
	res, err := Join(OJ, left, right, props.Domain{}, opt)
	if err != nil {
		t.Fatalf("OJ with %d matches over %d and %d rows, budget %d bytes: %v", matches, len(left), len(right), 4*pairs, err)
	}
	if res.Len() != matches {
		t.Fatalf("OJ found %d matches, want %d", res.Len(), matches)
	}
	res.Release()
	if mem.Used() != 0 {
		t.Fatalf("%d bytes still reserved", mem.Used())
	}
}

// cancellingIndex cancels the query during its nth CountBatch or FillBatch
// call, so the probe's next poll sees the cancellation mid-pass.
type cancellingIndex struct {
	RowIndex
	cancel          context.CancelFunc
	atCount, atFill int32 // 1-based call number to cancel in; 0 = never
	counts, fills   atomic.Int32
}

func (c *cancellingIndex) CountBatch(keys []uint32) int {
	if c.counts.Add(1) == c.atCount {
		c.cancel()
	}
	return c.RowIndex.CountBatch(keys)
}

func (c *cancellingIndex) FillBatch(keys []uint32, first int32, build, probe []int32) int {
	if c.fills.Add(1) == c.atFill {
		c.cancel()
	}
	return c.RowIndex.FillBatch(keys, first, build, probe)
}

// TestProbeCancelledMidCountAndMidFill: cancellation is polled every
// checkEvery rows of both probe passes, surfaces as the typed cancellation
// error, and leaves nothing reserved — whether it lands while the matches
// are being counted (before the pair arrays exist) or while they are filled.
func TestProbeCancelledMidCountAndMidFill(t *testing.T) {
	build := make([]uint32, 1000)
	for i := range build {
		build[i] = uint32(i)
	}
	probe := make([]uint32, 5*checkEvery)
	for i := range probe {
		probe[i] = uint32(i % 1500)
	}
	m, err := hashtable.BuildMulti(hashtable.Fibonacci, build, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		for _, at := range []struct {
			name        string
			count, fill int32 // batch call to cancel in
			wantCounts  int32 // count batches a serial probe runs in all
			maxFills    int32 // fill batches a serial probe runs at most
		}{
			{"mid-count", 2, 0, 2, 0},
			{"mid-fill", 0, 2, 5, 2},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			mem := govern.NewBudget(0)
			rv := resv{ctl: &govern.Ctl{Ctx: ctx, Mem: mem}}
			idx := &cancellingIndex{RowIndex: m, cancel: cancel, atCount: at.count, atFill: at.fill}
			_, err := probePairs(idx, probe, workers, &rv, bothRows)
			rv.release()
			cancel()
			if !errors.Is(err, qerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s dop %d: err = %v, want ErrCancelled wrapping context.Canceled", at.name, workers, err)
			}
			if mem.Used() != 0 {
				t.Fatalf("%s dop %d: %d bytes still reserved", at.name, workers, mem.Used())
			}
			// With one worker the batch schedule is fixed: the poll before
			// the next batch must stop the pass.
			if counts, fills := idx.counts.Load(), idx.fills.Load(); workers == 1 && (counts != at.wantCounts || fills > at.maxFills) {
				t.Fatalf("%s: probe ran %d count and %d fill batches, want %d and at most %d",
					at.name, counts, fills, at.wantCounts, at.maxFills)
			}
			if at.name == "mid-count" && mem.Peak() != 0 {
				t.Fatalf("%s dop %d: pair arrays reserved (%d bytes) though the count pass was cancelled", at.name, workers, mem.Peak())
			}
		}
	}
}

// TestJoinRelKeepsOnlyNamedColumns: a join given an output column list
// materialises those columns and no others — in schema order, "_r" suffixes
// decided on the full inputs — and each equals the same column of the
// unrestricted join, for every kernel, both build sides and the prebuilt
// index path.
func TestJoinRelKeepsOnlyNamedColumns(t *testing.T) {
	r, s := datagen.FKPair(5, datagen.FKConfig{RRows: 400, SRows: 1500, AGroups: 20, Dense: true, RSorted: true, SSorted: true})
	// Give S a column that clashes with one of R's, so the output has "A_r".
	sa := make([]uint32, s.NumRows())
	for i := range sa {
		sa[i] = uint32(i % 7)
	}
	s = storage.MustNewRelation("S", s.MustColumn("R_ID"), s.MustColumn("M"), storage.NewUint32("A", sa))
	idx, err := hashtable.BuildMulti(hashtable.Murmur3Fin, r.MustColumn("ID").Uint32s(), nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(kind JoinKind, variant string, cols []string) (*storage.Relation, error) {
		switch variant {
		case "swapped":
			return JoinRel(r, s, "ID", "R_ID", kind, JoinOptions{}, props.Domain{}, true, cols, nil)
		case "index":
			return JoinRel(r, s, "ID", "R_ID", HJ, JoinOptions{}, props.Domain{}, false, cols, idx)
		default:
			return JoinRel(r, s, "ID", "R_ID", kind, JoinOptions{}, props.Domain{}, false, cols, nil)
		}
	}
	for _, kind := range []JoinKind{HJ, SPHJ, OJ, SOJ, BSJ} {
		for _, variant := range []string{"plain", "swapped", "index"} {
			if variant == "index" && kind != HJ {
				continue
			}
			if variant == "swapped" && kind == SPHJ {
				continue // S.R_ID is not a dense build key
			}
			full, err := run(kind, variant, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, variant, err)
			}
			if got := strings.Join(full.ColumnNames(), ","); got != "ID,A,R_ID,M,A_r" {
				t.Fatalf("%s/%s: full schema %s", kind, variant, got)
			}
			for _, cols := range [][]string{{"A"}, {"A_r", "ID"}, {"M", "A", "no_such_column"}, {"A_r"}} {
				got, err := run(kind, variant, cols)
				if err != nil {
					t.Fatalf("%s/%s %v: %v", kind, variant, cols, err)
				}
				var want []string
				for _, name := range full.ColumnNames() {
					for _, c := range cols {
						if c == name {
							want = append(want, name)
						}
					}
				}
				if strings.Join(got.ColumnNames(), ",") != strings.Join(want, ",") {
					t.Fatalf("%s/%s %v: schema %v, want %v", kind, variant, cols, got.ColumnNames(), want)
				}
				for _, name := range want {
					if !got.MustColumn(name).Equal(full.MustColumn(name)) {
						t.Fatalf("%s/%s %v: column %s differs from the unrestricted join", kind, variant, cols, name)
					}
				}
			}
			if _, err := run(kind, variant, []string{"no_such_column"}); err == nil {
				t.Fatalf("%s/%s: a column list naming no output column was accepted", kind, variant)
			}
		}
	}
}
