package exec

import (
	"sync"
	"sync/atomic"

	"dqo/internal/faultinject"
	"dqo/internal/qerr"
	"dqo/internal/storage"
)

// Pipe is the parallel pipeline driver: it fans a scan→filter→project
// streaming segment across the worker pool, one morsel per task, and
// re-emits the results in input order. Because the stages are
// morsel-decomposable (see internal/physical), running them per morsel and
// concatenating in morsel order is byte-identical to the serial pipeline at
// any worker count — parallelism stays a pure cost dimension.
//
// Concurrency protocol:
//   - A ticket semaphore (capacity 2×workers) bounds how many morsels may be
//     claimed but not yet consumed, so results buffering stays O(workers).
//   - Workers claim morsel indexes from an atomic counter, run the stage
//     chain, and send (index, batch) on a results channel whose capacity
//     equals the ticket count — a send can never block.
//   - The consumer holds out-of-order results in a pending map and releases
//     one ticket per consumed morsel. Claims are sequential, every claimed
//     morsel's result arrives, and a ticket is always freeable once the
//     consumer catches up — so the loop cannot deadlock.
//   - Close closes the done channel (once); workers observe it instead of
//     claiming further morsels, which is what makes LIMIT early-exit and
//     cancellation abandon in-flight sibling morsels within one morsel of
//     work.
type Pipe struct {
	base
	rel    *storage.Relation
	scan   *pipeNode
	stages []pipeStage
	dop    int

	// Runtime state, created in Open.
	nMorsels int
	claim    int64
	done     chan struct{}
	closing  sync.Once
	tickets  chan struct{}
	results  chan pipeResult
	pending  map[int]pipeResult
	next     int
	wg       sync.WaitGroup
}

type pipeStage struct {
	node *pipeNode
	fn   Stage
}

// Stage is a morsel-decomposable pipeline stage: it maps one morsel to its
// output, drawing any arrays it makes from the query's scratch arena s.
type Stage func(s *storage.Scratch, in *storage.Relation) (*storage.Relation, error)

type pipeResult struct {
	idx   int
	batch *storage.Relation
	err   error
}

// pipeNode is a stats-only pseudo-operator: it gives each pipeline stage its
// own row in the execution profile. Its Next is never called — the Pipe's
// workers run the stage functions directly and feed these counters.
type pipeNode struct {
	base
	child Operator
}

func (n *pipeNode) Open(ec *ExecContext) error                      { return nil }
func (n *pipeNode) Next(ec *ExecContext) (*storage.Relation, error) { return nil, nil }
func (n *pipeNode) Close(ec *ExecContext) error                     { return nil }
func (n *pipeNode) Children() []Operator {
	if n.child == nil {
		return nil
	}
	return []Operator{n.child}
}

// NewPipe returns a parallel pipeline over rel with the plan's chosen degree
// of parallelism. Stages are added bottom-up with AddStage.
func NewPipe(scanLabel Labeler, rel *storage.Relation, dop int) *Pipe {
	return &Pipe{
		base: base{label: Text("Pipeline")},
		rel:  rel,
		scan: &pipeNode{base: base{label: scanLabel}},
		dop:  dop,
	}
}

// AddStage appends a morsel-decomposable stage (filter, project) above the
// current top of the pipeline.
func (p *Pipe) AddStage(label Labeler, fn Stage) {
	node := &pipeNode{base: base{label: label}}
	if len(p.stages) == 0 {
		node.child = p.scan
	} else {
		node.child = p.stages[len(p.stages)-1].node
	}
	p.stages = append(p.stages, pipeStage{node: node, fn: fn})
}

// Children implements Operator: the stage chain top-down ending at the scan,
// so the profile shows the pipeline's internal structure.
func (p *Pipe) Children() []Operator {
	if len(p.stages) == 0 {
		return []Operator{p.scan}
	}
	return []Operator{p.stages[len(p.stages)-1].node}
}

// Open implements Operator: it sizes the morsel schedule and starts the
// workers.
func (p *Pipe) Open(ec *ExecContext) error {
	n := p.rel.NumRows()
	p.nMorsels = (n + ec.MorselSize - 1) / ec.MorselSize
	if p.nMorsels == 0 {
		p.nMorsels = 1 // empty relation: one [0,0) morsel carries the schema
	}
	eff := ec.EffectiveDOP(p.dop)
	p.stats.DOP = int64(eff)
	p.scan.stats.DOP = int64(eff)
	for _, st := range p.stages {
		st.node.stats.DOP = int64(eff)
	}
	window := 2 * eff
	p.claim = 0
	p.next = 0
	p.done = make(chan struct{})
	p.closing = sync.Once{}
	p.tickets = make(chan struct{}, window)
	for i := 0; i < window; i++ {
		p.tickets <- struct{}{}
	}
	p.results = make(chan pipeResult, window)
	p.pending = make(map[int]pipeResult, window)
	p.wg.Add(eff)
	for w := 0; w < eff; w++ {
		go p.worker(ec)
	}
	return nil
}

// worker claims morsels and runs the stage chain until the schedule is
// exhausted or the pipe is closed. In-flight result batches are reserved
// against the query budget (released when the consumer takes them, or by
// Close for never-consumed leftovers), so the out-of-order window is
// accounted memory, not a hidden buffer.
func (p *Pipe) worker(ec *ExecContext) {
	defer p.wg.Done()
	ctl := ec.Ctl()
	for {
		select {
		case <-p.done:
			return
		case <-p.tickets:
		}
		if err := ec.Err(); err != nil {
			return // consumer observes ctx.Done itself; no result needed
		}
		i := int(atomic.AddInt64(&p.claim, 1) - 1)
		if i >= p.nMorsels {
			return
		}
		batch, err := p.runMorsel(ec, i)
		if err == nil {
			if rerr := ctl.Reserve(batch.MemBytes()); rerr != nil {
				batch, err = nil, rerr
			}
		}
		p.results <- pipeResult{idx: i, batch: batch, err: err} // cap == tickets: never blocks
	}
}

// runMorsel slices morsel i out of the source relation and applies every
// stage, crediting the per-stage stat nodes. A panicking stage kernel is
// converted into a typed internal error carried by the result, so one bad
// morsel fails the query instead of the process; the consumer's error return
// makes Run close the pipe, which stops the sibling workers.
func (p *Pipe) runMorsel(ec *ExecContext, i int) (batch *storage.Relation, err error) {
	defer qerr.RecoverTo(&err)
	if err := faultinject.Fire(faultinject.PointExecPipeMorsel); err != nil {
		return nil, err
	}
	lo := i * ec.MorselSize
	hi := lo + ec.MorselSize
	if n := p.rel.NumRows(); hi > n {
		hi = n
	}
	stop := p.scan.timed()
	batch = p.rel.Slice(lo, hi)
	p.scan.emitted(batch)
	stop()
	for _, st := range p.stages {
		stop := st.node.timed()
		st.node.addRowsIn(int64(batch.NumRows()))
		out, err := st.fn(ec.ctl.Scratch, batch)
		if err != nil {
			stop()
			return nil, err
		}
		st.node.emitted(out)
		stop()
		batch = out
	}
	return batch, nil
}

// Next implements Operator: it consumes results in morsel order, buffering
// out-of-order arrivals, and surfaces the lowest-index error
// deterministically.
func (p *Pipe) Next(ec *ExecContext) (*storage.Relation, error) {
	defer p.timed()()
	for {
		if r, ok := p.pending[p.next]; ok {
			delete(p.pending, p.next)
			p.next++
			p.tickets <- struct{}{} // release the window slot; cap bound, never blocks
			if r.err != nil {
				return nil, r.err
			}
			// Consumed: the batch leaves the pipe's window; the caller that
			// accumulates it charges it anew.
			ec.Ctl().Release(r.batch.MemBytes())
			p.addRowsIn(int64(r.batch.NumRows()))
			p.emitted(r.batch)
			return r.batch, nil
		}
		if p.next >= p.nMorsels {
			return nil, nil
		}
		select {
		case r := <-p.results:
			p.pending[r.idx] = r
		case <-ec.Context().Done():
			return nil, ec.Err()
		}
	}
}

// Close implements Operator: it signals the workers to stop claiming
// morsels, waits for them to drain, and releases the budget reservations of
// results that were produced but never consumed (early LIMIT exit, error
// unwind). Idempotent — Limit closes its child early and the final tree
// Close repeats the call.
func (p *Pipe) Close(ec *ExecContext) error {
	if p.done == nil {
		return nil // never opened
	}
	p.closing.Do(func() { close(p.done) })
	p.wg.Wait()
	ctl := ec.Ctl()
	for {
		select {
		case r := <-p.results:
			if r.batch != nil {
				ctl.Release(r.batch.MemBytes())
			}
			continue
		default:
		}
		break
	}
	for _, r := range p.pending {
		if r.batch != nil {
			ctl.Release(r.batch.MemBytes())
		}
	}
	p.pending = nil
	return nil
}
