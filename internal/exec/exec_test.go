package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/storage"
)

func testRel(t testing.TB, n int) *storage.Relation {
	t.Helper()
	ids := make([]uint32, n)
	vals := make([]int64, n)
	for i := range ids {
		ids[i] = uint32(i)
		vals[i] = int64(i * 10)
	}
	return storage.MustNewRelation("t",
		storage.NewUint32("id", ids), storage.NewInt64("v", vals))
}

func runTree(t *testing.T, root Operator, morsel int) *storage.Relation {
	t.Helper()
	ec := NewExecContext(context.Background(), morsel, 0)
	out, err := Run(ec, root)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanMorselBoundaries(t *testing.T) {
	rel := testRel(t, 10)
	for _, morsel := range []int{1, 3, 7, 10, 1000} {
		scan := NewScan(Text("scan"), rel)
		out := runTree(t, scan, morsel)
		if !out.Equal(rel) {
			t.Fatalf("morsel %d: reassembled relation differs", morsel)
		}
		wantBatches := int64((10 + morsel - 1) / morsel)
		st := scan.Stats()
		if st.Batches != wantBatches || st.RowsOut != 10 {
			t.Fatalf("morsel %d: batches=%d rows=%d, want %d/10", morsel, st.Batches, st.RowsOut, wantBatches)
		}
	}
}

func TestEmptyRelationEmitsSchema(t *testing.T) {
	rel := testRel(t, 0)
	out := runTree(t, NewScan(Text("scan"), rel), 4)
	if out.NumRows() != 0 || out.NumCols() != 2 {
		t.Fatalf("empty scan lost schema: %d rows, %d cols", out.NumRows(), out.NumCols())
	}
	// A filter over an empty input must still surface the schema.
	pred := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "id"}, R: expr.IntLit{V: 5}}
	out = runTree(t, NewFilter(Text("filter"), NewScan(Text("scan"), testRel(t, 0)), pred, nil), 4)
	if out.NumCols() != 2 {
		t.Fatal("filter over empty input lost schema")
	}
}

func TestFilterPerMorsel(t *testing.T) {
	rel := testRel(t, 100)
	pred := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "id"}, R: expr.IntLit{V: 30}}
	filter := NewFilter(Text("filter"), NewScan(Text("scan"), rel), pred, nil)
	out := runTree(t, filter, 7)
	if out.NumRows() != 30 {
		t.Fatalf("filter kept %d rows, want 30", out.NumRows())
	}
	st := filter.Stats()
	if st.RowsIn != 100 || st.RowsOut != 30 {
		t.Fatalf("filter stats in=%d out=%d, want 100/30", st.RowsIn, st.RowsOut)
	}
}

func TestProject(t *testing.T) {
	rel := testRel(t, 20)
	out := runTree(t, NewProject(Text("project"), NewScan(Text("scan"), rel), []string{"v"}), 6)
	if out.NumCols() != 1 || out.ColumnNames()[0] != "v" || out.NumRows() != 20 {
		t.Fatalf("projection wrong: %v, %d rows", out.ColumnNames(), out.NumRows())
	}
}

func TestLimitEarlyExit(t *testing.T) {
	rel := testRel(t, 1000)
	scan := NewScan(Text("scan"), rel)
	limit := NewLimit(scan, 5)
	out := runTree(t, limit, 10)
	if out.NumRows() != 5 {
		t.Fatalf("limit emitted %d rows", out.NumRows())
	}
	// Early exit: the scan must have produced only the first morsel, not
	// the whole relation.
	if st := scan.Stats(); st.RowsOut != 10 || st.Batches != 1 {
		t.Fatalf("limit did not stop the scan: rows=%d batches=%d", st.RowsOut, st.Batches)
	}
	if got := out.MustColumn("id").Uint32s(); got[0] != 0 || got[4] != 4 {
		t.Fatalf("limit rows wrong: %v", got)
	}
}

func TestLimitZero(t *testing.T) {
	scan := NewScan(Text("scan"), testRel(t, 50))
	out := runTree(t, NewLimit(scan, 0), 10)
	if out.NumRows() != 0 || out.NumCols() != 2 {
		t.Fatalf("LIMIT 0: %d rows, %d cols", out.NumRows(), out.NumCols())
	}
	if st := scan.Stats(); st.Batches > 1 {
		t.Fatalf("LIMIT 0 still drained %d batches", st.Batches)
	}
}

func TestBreaker1KernelRunsOnce(t *testing.T) {
	rel := testRel(t, 25)
	calls := 0
	rev := NewBreaker(Text("reverse"), func(_ *ExecContext, _ *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
		calls++
		idx := make([]int32, in[0].NumRows())
		for i := range idx {
			idx[i] = int32(in[0].NumRows() - 1 - i)
		}
		return in[0].Gather(nil, idx), nil
	}, nil, NewScan(Text("scan"), rel))
	out := runTree(t, rev, 4)
	if calls != 1 {
		t.Fatalf("kernel ran %d times", calls)
	}
	if got := out.MustColumn("id").Uint32s(); got[0] != 24 || got[24] != 0 {
		t.Fatalf("kernel result not streamed correctly: %v", got[:3])
	}
	st := rev.Stats()
	if st.RowsIn != 25 || st.RowsOut != 25 || st.PeakBytes == 0 {
		t.Fatalf("breaker stats wrong: %+v", st)
	}
}

func TestBreaker2ConcurrentDrain(t *testing.T) {
	left := testRel(t, 40)
	right := testRel(t, 60)
	join := NewBreaker(Text("cross-count"), func(_ *ExecContext, _ *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
		n := int64(in[0].NumRows()) * int64(in[1].NumRows())
		return storage.NewRelation("out", storage.NewInt64("n", []int64{n}))
	}, nil, NewScan(Text("l"), left), NewScan(Text("r"), right))
	out := runTree(t, join, 8)
	if got := out.MustColumn("n").Int64s()[0]; got != 2400 {
		t.Fatalf("kernel saw wrong inputs: %d", got)
	}
	if st := join.Stats(); st.RowsIn != 100 {
		t.Fatalf("rows in = %d, want 100", st.RowsIn)
	}
}

// blocking is a test operator whose Next blocks until the context is
// cancelled — the worst case for cancellation latency.
type blocking struct {
	base
	rel *storage.Relation
}

func (b *blocking) Open(ec *ExecContext) error  { return nil }
func (b *blocking) Close(ec *ExecContext) error { return nil }
func (b *blocking) Children() []Operator        { return nil }
func (b *blocking) Next(ec *ExecContext) (*storage.Relation, error) {
	<-ec.Context().Done()
	return nil, ec.Err()
}

func TestCancellationUnwindsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	join := NewBreaker(Text("join"), func(_ *ExecContext, _ *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
		t.Error("kernel ran despite cancellation")
		return in[0], nil
	}, nil, &blocking{base: base{label: Text("block-l")}}, &blocking{base: base{label: Text("block-r")}})
	ec := NewExecContext(ctx, 8, 2)
	done := make(chan error, 1)
	go func() {
		_, err := Run(ec, join)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not unwind the query")
	}
	// Both drain goroutines must have exited.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d -> %d", before, n)
	}
}

func TestCancelledContextFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := NewExecContext(ctx, 8, 0)
	_, err := Run(ec, NewScan(Text("scan"), testRel(t, 100)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestPoolNestedRunNoDeadlock(t *testing.T) {
	p := NewPool(1)
	err := p.Run(
		func() error {
			// Nested Run while the only slot may be taken: must run inline
			// rather than deadlock.
			return p.Run(
				func() error { return nil },
				func() error { return errors.New("inner") },
			)
		},
		func() error { return nil },
	)
	if err == nil || err.Error() != "inner" {
		t.Fatalf("nested pool error lost: %v", err)
	}
}

func TestPoolPropagatesFirstError(t *testing.T) {
	p := NewPool(4)
	want := errors.New("boom")
	if err := p.Run(func() error { return nil }, func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
}

func TestProfileCollectsEveryOperator(t *testing.T) {
	rel := testRel(t, 64)
	pred := expr.Bin{Op: expr.OpGe, L: expr.Col{Name: "id"}, R: expr.IntLit{V: 0}}
	root := NewLimit(NewFilter(Text("filter"), NewScan(Text("scan"), rel), pred, nil), 20)
	runTree(t, root, 8)
	prof := CollectProfile(root)
	if len(prof) != 3 {
		t.Fatalf("profile has %d entries, want 3", len(prof))
	}
	for _, s := range prof {
		if s.RowsOut == 0 || s.Wall == 0 {
			t.Fatalf("operator %q has empty counters: %+v", s.Label, s)
		}
	}
	if prof[0].Depth != 0 || prof[2].Depth != 2 {
		t.Fatalf("profile depths wrong: %+v", prof)
	}
	text := Profile(prof).String()
	for _, want := range []string{"rows_out", "Limit", "filter", "scan"} {
		if !strings.Contains(text, want) {
			t.Fatalf("profile rendering missing %q:\n%s", want, text)
		}
	}
}
