package exec

import (
	"context"
	"testing"

	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/storage"
)

func TestCountersTickAtBoundaries(t *testing.T) {
	rel := testRel(t, 100)
	var c Counters
	ec := NewExecContext(context.Background(), 10, 0)
	ec.Counters = &c
	out, err := Run(ec, NewScan(Text("scan"), rel))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 100 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if got := c.Morsels.Load(); got != 10 {
		t.Fatalf("Morsels = %d, want 10", got)
	}
	if got := c.Rows.Load(); got != 100 {
		t.Fatalf("Rows = %d, want 100", got)
	}

	// A breaker drain is also a pipeline boundary: draining 100 rows in
	// 10-row morsels plus re-emitting the result counts on both sides.
	c.Morsels.Store(0)
	c.Rows.Store(0)
	br := NewBreaker(Text("identity"), func(_ *ExecContext, _ *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
		return in[0], nil
	}, nil, NewScan(Text("scan"), rel))
	ec2 := NewExecContext(context.Background(), 10, 0)
	ec2.Counters = &c
	if _, err := Run(ec2, br); err != nil {
		t.Fatal(err)
	}
	if got := c.Rows.Load(); got != 200 { // 100 drained + 100 emitted
		t.Fatalf("Rows = %d, want 200", got)
	}
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.tick(100) // must not panic
	rel := testRel(t, 10)
	ec := NewExecContext(context.Background(), 4, 0)
	if _, err := Run(ec, NewScan(Text("scan"), rel)); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathInstrumentationAllocFree guards the hot-path contract of the
// counters: the per-morsel counter hook performs zero allocations, and a
// full morsel pipeline allocates exactly the same with counters enabled as
// with them disabled. Under -race only the first holds: the pipeline draws
// its selection vectors (storage.GetInt32s), part lists (partsPool) and
// concatenation scratch from sync.Pools, which the race detector makes drop
// items at random, so the two runs differ by pool misses alone.
func TestHotPathInstrumentationAllocFree(t *testing.T) {
	var c Counters
	if n := testing.AllocsPerRun(1000, func() { c.tick(4096) }); n != 0 {
		t.Fatalf("Counters.tick allocates %v per call, want 0", n)
	}
	if raceEnabled {
		t.Log("pipeline comparison skipped under -race: sync.Pool drops pooled scratch at random")
		return
	}

	rel := testRel(t, 4096)
	pred := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "id"}, R: expr.IntLit{V: 4000}}
	run := func(cnt *Counters) float64 {
		return testing.AllocsPerRun(50, func() {
			ec := NewExecContext(context.Background(), 256, 0)
			ec.Counters = cnt
			if _, err := Run(ec, NewFilter(Text("f"), NewScan(Text("s"), rel), pred, nil)); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := run(nil)
	on := run(&c)
	if on > off {
		t.Fatalf("counters add allocations: %v with, %v without", on, off)
	}
}
