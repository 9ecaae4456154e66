package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dqo/internal/expr"
	"dqo/internal/physical"
	"dqo/internal/storage"
)

func pipeRel(t *testing.T, n int) *storage.Relation {
	t.Helper()
	ids := make([]uint32, n)
	vals := make([]int64, n)
	for i := range ids {
		ids[i] = uint32(i)
		vals[i] = int64(i) * 3
	}
	rel, err := storage.NewRelation("t", storage.NewUint32("id", ids), storage.NewInt64("v", vals))
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func filterStage(pred expr.Expr) Stage {
	return func(s *storage.Scratch, in *storage.Relation) (*storage.Relation, error) {
		return physical.FilterRel(in, pred, nil, s)
	}
}

// The pipe's contract: identical output to the serial pipeline, in input
// order, at every (workers, morsel) combination.
func TestPipeMatchesSerialPipeline(t *testing.T) {
	rel := pipeRel(t, 10_000)
	pred := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "id"}, R: expr.IntLit{V: 7000}}
	want, err := physical.FilterRel(rel, pred, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err = physical.ProjectRel(want, "v")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, morsel := range []int{1, 7, 1024, 1 << 30} {
			p := NewPipe(Text("scan"), rel, workers)
			p.AddStage(Text("filter"), filterStage(pred))
			p.AddStage(Text("project"), func(_ *storage.Scratch, in *storage.Relation) (*storage.Relation, error) {
				return physical.ProjectRel(in, "v")
			})
			ec := NewExecContext(context.Background(), morsel, workers)
			got, err := Run(ec, p)
			if err != nil {
				t.Fatalf("w=%d m=%d: %v", workers, morsel, err)
			}
			if !got.Equal(want) {
				t.Fatalf("w=%d m=%d: output differs from serial pipeline", workers, morsel)
			}
		}
	}
}

func TestPipeEmptyRelationEmitsSchema(t *testing.T) {
	rel := pipeRel(t, 0)
	p := NewPipe(Text("scan"), rel, 4)
	p.AddStage(Text("filter"), filterStage(expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "id"}, R: expr.IntLit{V: 5}}))
	ec := NewExecContext(context.Background(), 16, 4)
	got, err := Run(ec, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.NumCols() != 2 {
		t.Fatalf("empty pipe: %d rows, %d cols", got.NumRows(), got.NumCols())
	}
}

func TestPipeStageErrorIsDeterministic(t *testing.T) {
	rel := pipeRel(t, 1000)
	for _, workers := range []int{1, 4} {
		p := NewPipe(Text("scan"), rel, workers)
		p.AddStage(Text("boom"), func(_ *storage.Scratch, in *storage.Relation) (*storage.Relation, error) {
			if ids := in.MustColumn("id").Uint32s(); len(ids) > 0 && ids[0] >= 96 {
				return nil, fmt.Errorf("boom at %d", ids[0])
			}
			return in, nil
		})
		ec := NewExecContext(context.Background(), 32, workers)
		_, err := Run(ec, p)
		// Morsels are consumed in order, so the error surfaced must be the
		// lowest-index failing morsel regardless of worker count.
		if err == nil || err.Error() != "boom at 96" {
			t.Fatalf("w=%d: got %v, want boom at 96", workers, err)
		}
	}
}

// LIMIT early-exit: closing the pipe mid-stream must stop the workers and
// keep the consumed prefix identical to the serial order.
func TestPipeLimitEarlyExit(t *testing.T) {
	rel := pipeRel(t, 50_000)
	for _, morsel := range []int{1, 7, 1024} {
		for _, workers := range []int{2, 8} {
			p := NewPipe(Text("scan"), rel, workers)
			p.AddStage(Text("pass"), func(_ *storage.Scratch, in *storage.Relation) (*storage.Relation, error) { return in, nil })
			limit := NewLimit(p, 10)
			ec := NewExecContext(context.Background(), morsel, workers)
			got, err := Run(ec, limit)
			if err != nil {
				t.Fatalf("m=%d w=%d: %v", morsel, workers, err)
			}
			if got.NumRows() != 10 {
				t.Fatalf("m=%d w=%d: %d rows, want 10", morsel, workers, got.NumRows())
			}
			ids := got.MustColumn("id").Uint32s()
			for i, id := range ids {
				if id != uint32(i) {
					t.Fatalf("m=%d w=%d: row %d = id %d; prefix not order-preserved", morsel, workers, i, id)
				}
			}
			// Early exit: nowhere near all 50k rows may have been scanned.
			if scanned := p.scan.Stats().RowsOut; scanned > int64(50*workers*max(morsel, 1)+morsel) {
				t.Fatalf("m=%d w=%d: scanned %d rows after limit 10", morsel, workers, scanned)
			}
		}
	}
}

func TestPipeCancellationStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	rel := pipeRel(t, 100_000)
	ctx, cancel := context.WithCancel(context.Background())
	slow := func(_ *storage.Scratch, in *storage.Relation) (*storage.Relation, error) {
		time.Sleep(200 * time.Microsecond)
		return in, nil
	}
	p := NewPipe(Text("scan"), rel, 4)
	p.AddStage(Text("slow"), slow)
	ec := NewExecContext(ctx, 64, 4)
	done := make(chan error, 1)
	go func() {
		_, err := Run(ec, p)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not unwind the pipe")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d -> %d", before, n)
	}
}

func TestPipeStatsAndProfile(t *testing.T) {
	rel := pipeRel(t, 10_000)
	p := NewPipe(Text("scan t"), rel, 4)
	p.AddStage(Text("filter"), filterStage(expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "id"}, R: expr.IntLit{V: 5000}}))
	ec := NewExecContext(context.Background(), 512, 4)
	if _, err := Run(ec, p); err != nil {
		t.Fatal(err)
	}
	prof := CollectProfile(p)
	if len(prof) != 3 { // Pipeline -> filter -> scan
		t.Fatalf("profile has %d rows, want 3", len(prof))
	}
	if prof[0].DOP != 4 || prof[1].DOP != 4 || prof[2].DOP != 4 {
		t.Fatalf("profile DOP not recorded: %+v", prof)
	}
	if prof[2].RowsOut != 10_000 || prof[1].RowsOut != 5000 {
		t.Fatalf("stage stats wrong: scan out %d, filter out %d", prof[2].RowsOut, prof[1].RowsOut)
	}
	if prof[2].Batches != int64((10_000+511)/512) {
		t.Fatalf("scan batches = %d", prof[2].Batches)
	}
}
