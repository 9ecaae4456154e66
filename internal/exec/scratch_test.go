package exec

import (
	"context"
	"runtime"
	"testing"

	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/storage"
)

// heapProbe passes its child's batches up. Every every-th batch it forces a
// collection and records how far the live heap has grown since Open; it also
// records whether the handle it was driven with carried a scratch arena.
type heapProbe struct {
	base
	child       Operator
	every, n    int
	start, peak uint64
	arena       bool
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (p *heapProbe) Open(ec *ExecContext) error {
	p.start = liveHeap()
	return p.child.Open(ec)
}
func (p *heapProbe) Close(ec *ExecContext) error { return p.child.Close(ec) }
func (p *heapProbe) Children() []Operator        { return []Operator{p.child} }
func (p *heapProbe) Next(ec *ExecContext) (*storage.Relation, error) {
	p.arena = p.arena || ec.ctl.Arena() != nil
	batch, err := p.child.Next(ec)
	if p.n++; p.n%p.every == 0 {
		if h := liveHeap(); h > p.start {
			p.peak = max(p.peak, h-p.start)
		}
	}
	return batch, err
}

// TestSpillingQueryHoldsNoFilteredInput: a spilling GROUP BY over a filter —
// a serial Filter and a pipe's filter stage — holds what its run quota
// allows, not its filtered input. The filter's morsel batches are written to
// disk and dropped; had the query an arena, it would keep every one of them
// (6.5 MB here) until the query ends, where neither the budget nor the quota
// sees them. The probe under the grouping measures the live heap after a
// forced collection while the input streams in. A query under a memory
// budget takes no arena either; one with neither does.
func TestSpillingQueryHoldsNoFilteredInput(t *testing.T) {
	const n, quota, bound = 600_000, 64 << 10, 2 << 20
	rel := storage.MustNewRelation("G", storage.NewUint32("K", sparseKeys(n, n/4, 3)),
		storage.NewInt64("V", payloadCol(n)))
	pred := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "V"}, R: expr.IntLit{V: 900}}
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "V"}}
	opt := physical.GroupOptions{Hash: hashtable.Identity, Parallel: 1}
	dom := plannedDomain(rel, "K")
	filters := map[string]func() Operator{
		"serial filter": func() Operator { return NewFilter(Text("filter"), NewScan(Text("scan"), rel), pred, nil) },
		"pipe filter": func() Operator {
			p := NewPipe(Text("scan"), rel, 2)
			p.AddStage(Text("filter"), filterStage(pred))
			return p
		},
	}
	for name, filter := range filters {
		probe := &heapProbe{base: base{label: Text("probe")}, child: filter(), every: 16}
		dir := t.TempDir()
		ec := NewExecContextBudget(context.Background(), 4096, 2, govern.NewBudget(1<<30))
		ec.SetSpill(dir, 0)
		ec.SetSpillQuota(quota)
		root := spillGroup(probe, "K", aggs, opt, dom)
		if _, err := Run(ec, root); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var spilled int64
		for _, s := range CollectProfile(root) {
			spilled += s.SpillBytes
		}
		t.Logf("%s: live heap grew by at most %d bytes over %d batches, %d bytes spilled", name, probe.peak, probe.n, spilled)
		switch {
		case spilled == 0:
			t.Fatalf("%s: the grouping never spilled", name)
		case probe.arena:
			t.Fatalf("%s: a spilling query drew from a scratch arena", name)
		case probe.peak > bound:
			t.Fatalf("%s: live heap grew by %d bytes while the input streamed in, want at most %d (run quota %d)", name, probe.peak, bound, quota)
		}
	}
	for _, tc := range []struct {
		name      string
		mem       *govern.Budget
		wantArena bool
	}{{"budgeted", govern.NewBudget(1 << 30), false}, {"unbounded", nil, true}} {
		probe := &heapProbe{base: base{label: Text("probe")}, child: filters["serial filter"](), every: 1 << 30}
		ec := NewExecContextBudget(context.Background(), 4096, 2, tc.mem)
		if _, err := Run(ec, NewBreaker(Text("group"), groupKernel("K", aggs, opt, dom), nil, probe)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if probe.arena != tc.wantArena {
			t.Fatalf("%s query: drew from an arena = %v, want %v", tc.name, probe.arena, tc.wantArena)
		}
	}
}
