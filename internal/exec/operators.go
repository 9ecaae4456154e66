package exec

import (
	"sync/atomic"

	"dqo/internal/expr"
	"dqo/internal/faultinject"
	"dqo/internal/govern"
	"dqo/internal/physical"
	"dqo/internal/storage"
)

// ---------------------------------------------------------------------------
// Scan: streams a base relation in morsel-sized zero-copy chunks.

// Scan emits rows [0, N) of a materialised relation, one morsel per Next.
type Scan struct {
	base
	rel     *storage.Relation
	pos     int
	started bool
}

// NewScan returns a scan over rel.
func NewScan(label Labeler, rel *storage.Relation) *Scan {
	return &Scan{base: base{label: label}, rel: rel}
}

// Open implements Operator.
func (s *Scan) Open(ec *ExecContext) error { s.pos, s.started = 0, false; return nil }

// Next implements Operator.
func (s *Scan) Next(ec *ExecContext) (*storage.Relation, error) {
	defer s.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	n := s.rel.NumRows()
	if s.pos >= n {
		if s.started {
			return nil, nil
		}
		// Empty relation: emit its schema once.
		s.started = true
		batch := s.rel.Slice(0, 0)
		s.emitted(batch)
		return batch, nil
	}
	hi := s.pos + ec.MorselSize
	if hi > n {
		hi = n
	}
	batch := s.rel.Slice(s.pos, hi)
	s.pos = hi
	s.started = true
	s.emitted(batch)
	return batch, nil
}

// Close implements Operator.
func (s *Scan) Close(ec *ExecContext) error { return nil }

// Children implements Operator.
func (s *Scan) Children() []Operator { return nil }

// ---------------------------------------------------------------------------
// Filter: per-morsel predicate evaluation.

// Filter emits the rows of each input batch satisfying a predicate.
type Filter struct {
	base
	child Operator
	pred  expr.Expr
}

// NewFilter returns a filter of child by pred.
func NewFilter(label Labeler, child Operator, pred expr.Expr) *Filter {
	return &Filter{base: base{label: label}, child: child, pred: pred}
}

// Open implements Operator.
func (f *Filter) Open(ec *ExecContext) error { return f.child.Open(ec) }

// Next implements Operator.
func (f *Filter) Next(ec *ExecContext) (*storage.Relation, error) {
	defer f.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	in, err := f.child.Next(ec)
	if err != nil || in == nil {
		return nil, err
	}
	f.addRowsIn(int64(in.NumRows()))
	// FilterRel is morsel-decomposable (see its contract in
	// internal/physical), so the bulk kernel applies per batch unchanged.
	batch, err := physical.FilterRel(in, f.pred)
	if err != nil {
		return nil, err
	}
	f.emitted(batch)
	return batch, nil
}

// Close implements Operator.
func (f *Filter) Close(ec *ExecContext) error { return f.child.Close(ec) }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.child} }

// ---------------------------------------------------------------------------
// Project: per-morsel column selection (zero-copy).

// Project restricts each input batch to the named columns.
type Project struct {
	base
	child Operator
	cols  []string
}

// NewProject returns a projection of child to cols.
func NewProject(label Labeler, child Operator, cols []string) *Project {
	return &Project{base: base{label: label}, child: child, cols: cols}
}

// Open implements Operator.
func (p *Project) Open(ec *ExecContext) error { return p.child.Open(ec) }

// Next implements Operator.
func (p *Project) Next(ec *ExecContext) (*storage.Relation, error) {
	defer p.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	in, err := p.child.Next(ec)
	if err != nil || in == nil {
		return nil, err
	}
	p.addRowsIn(int64(in.NumRows()))
	batch, err := physical.ProjectRel(in, p.cols...)
	if err != nil {
		return nil, err
	}
	p.emitted(batch)
	return batch, nil
}

// Close implements Operator.
func (p *Project) Close(ec *ExecContext) error { return p.child.Close(ec) }

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.child} }

// ---------------------------------------------------------------------------
// Limit: early-exit row cap.

// Limit emits at most n rows and then stops pulling its input entirely —
// LIMIT queries do only the work needed to produce the first n rows of
// whatever order the plan below yields. As soon as the cap is reached, the
// child is closed early, which cancels any in-flight sibling morsel tasks a
// parallel pipeline below may still be running (all Close implementations
// are idempotent, so the final tree Close is a no-op for the child).
type Limit struct {
	base
	child  Operator
	n      int
	seen   int
	done   bool
	closed bool
}

// NewLimit returns a limit of child to n rows.
func NewLimit(child Operator, n int) *Limit {
	return &Limit{base: base{label: Text("Limit")}, child: child, n: n}
}

// Open implements Operator.
func (l *Limit) Open(ec *ExecContext) error {
	l.seen, l.done, l.closed = 0, false, false
	return l.child.Open(ec)
}

// finish closes the child early, once.
func (l *Limit) finish(ec *ExecContext) error {
	l.done = true
	if l.closed {
		return nil
	}
	l.closed = true
	return l.child.Close(ec)
}

// Next implements Operator.
func (l *Limit) Next(ec *ExecContext) (*storage.Relation, error) {
	defer l.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if l.done {
		return nil, nil
	}
	in, err := l.child.Next(ec)
	if err != nil {
		return nil, err
	}
	if in == nil {
		if err := l.finish(ec); err != nil {
			return nil, err
		}
		return nil, nil
	}
	l.addRowsIn(int64(in.NumRows()))
	if remaining := l.n - l.seen; in.NumRows() > remaining {
		in = in.Slice(0, remaining)
	}
	l.seen += in.NumRows()
	if l.seen >= l.n {
		if err := l.finish(ec); err != nil {
			return nil, err
		}
	}
	l.emitted(in)
	return in, nil
}

// Close implements Operator.
func (l *Limit) Close(ec *ExecContext) error {
	if l.closed {
		return nil
	}
	l.closed = true
	return l.child.Close(ec)
}

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.child} }

// ---------------------------------------------------------------------------
// IndexScan: bulk gather of base-table rows chosen by an index probe.

// IndexScan answers an AV-backed range filter: the adaptive (cracked)
// index yields base-table row positions, which are gathered once and
// streamed out in morsel chunks. It replaces the scan+filter pair — the
// index is positional, so it must see the base table whole.
type IndexScan struct {
	base
	rel   *storage.Relation
	probe func() []int32
	out   *storage.Relation
	pos   int
	held  int64 // bytes reserved against the query budget; released in Close
}

// NewIndexScan returns an index scan over rel; probe returns the selected
// row positions (and may refine the index as a side effect).
func NewIndexScan(label Labeler, rel *storage.Relation, probe func() []int32) *IndexScan {
	return &IndexScan{base: base{label: label}, rel: rel, probe: probe}
}

// Open implements Operator.
func (s *IndexScan) Open(ec *ExecContext) error { s.out, s.pos = nil, 0; return nil }

// Next implements Operator.
func (s *IndexScan) Next(ec *ExecContext) (*storage.Relation, error) {
	defer s.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if s.out == nil {
		s.addRowsIn(int64(s.rel.NumRows()))
		idx := s.probe()
		// Reserve the gather output before allocating it: selected rows times
		// the base table's per-row footprint.
		if n := s.rel.NumRows(); n > 0 {
			need := int64(len(idx)) * (s.rel.MemBytes() / int64(n))
			if err := ec.CtlFor(s).Reserve(need); err != nil {
				return nil, err
			}
			atomic.AddInt64(&s.held, need)
		}
		s.out = s.rel.Gather(idx)
		s.peak(s.out.MemBytes())
	}
	return emitChunk(ec, &s.base, s.out, &s.pos)
}

// Close implements Operator.
func (s *IndexScan) Close(ec *ExecContext) error {
	ec.Ctl().Release(atomic.SwapInt64(&s.held, 0))
	return nil
}

// Children implements Operator.
func (s *IndexScan) Children() []Operator { return nil }

// ---------------------------------------------------------------------------
// Pipeline breakers: whole-relation kernels behind the morsel interface.

// Breaker1 is a unary pipeline breaker (sort, group-by): it materialises
// its input, runs a whole-relation kernel once, and streams the result in
// morsel chunks.
type Breaker1 struct {
	base
	child  Operator
	kernel func(*ExecContext, *storage.Relation) (*storage.Relation, error)
	dop    int // planned degree of parallelism for the kernel (<=1 serial)
	out    *storage.Relation
	pos    int
	held   int64 // bytes reserved against the query budget; released in Close
}

// NewBreaker1 returns a unary breaker applying kernel to the materialised
// input. The kernel receives the execution context so it can clamp its
// planned degree of parallelism to the pool (ec.EffectiveDOP).
func NewBreaker1(label Labeler, child Operator, kernel func(*ExecContext, *storage.Relation) (*storage.Relation, error)) *Breaker1 {
	return &Breaker1{base: base{label: label}, child: child, kernel: kernel}
}

// SetDOP records the plan's chosen degree of parallelism for stats display;
// the kernel closure applies the same value itself.
func (b *Breaker1) SetDOP(dop int) { b.dop = dop }

// Open implements Operator.
func (b *Breaker1) Open(ec *ExecContext) error {
	b.out, b.pos = nil, 0
	b.stats.DOP = int64(ec.EffectiveDOP(b.dop))
	return b.child.Open(ec)
}

// Next implements Operator.
func (b *Breaker1) Next(ec *ExecContext) (*storage.Relation, error) {
	defer b.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if b.out == nil {
		ctl := ec.CtlFor(b)
		in, rows, err := drain(ec, ctl, b.child, &b.held)
		if err != nil {
			return nil, err
		}
		b.addRowsIn(rows)
		if err := faultinject.Fire(faultinject.PointExecBreaker); err != nil {
			return nil, err
		}
		out, err := b.kernel(ec, in)
		if err != nil {
			return nil, err
		}
		// The drained input is dead once the kernel has consumed it: swap its
		// reservation out and return it after charging the output, so chained
		// breakers don't hold every pipeline stage's input simultaneously.
		inHeld := atomic.SwapInt64(&b.held, 0)
		defer ctl.Release(inHeld)
		if n := out.MemBytes(); n > 0 {
			if err := ctl.Reserve(n); err != nil {
				return nil, err
			}
			atomic.AddInt64(&b.held, n)
		}
		b.out = out
		b.peak(in.MemBytes() + out.MemBytes())
	}
	return emitChunk(ec, &b.base, b.out, &b.pos)
}

// Close implements Operator.
func (b *Breaker1) Close(ec *ExecContext) error {
	ec.Ctl().Release(atomic.SwapInt64(&b.held, 0))
	return b.child.Close(ec)
}

// Children implements Operator.
func (b *Breaker1) Children() []Operator { return []Operator{b.child} }

// Breaker2 is a binary pipeline breaker (join): it materialises both
// inputs — concurrently, on the context's worker pool — runs a
// whole-relation kernel once, and streams the result in morsel chunks.
type Breaker2 struct {
	base
	left, right Operator
	kernel      func(ec *ExecContext, l, r *storage.Relation) (*storage.Relation, error)
	dop         int
	out         *storage.Relation
	pos         int
	held        int64 // bytes reserved against the query budget; released in Close
}

// NewBreaker2 returns a binary breaker applying kernel to the two
// materialised inputs. The kernel receives the execution context so it can
// clamp its planned degree of parallelism to the pool (ec.EffectiveDOP).
func NewBreaker2(label Labeler, left, right Operator, kernel func(ec *ExecContext, l, r *storage.Relation) (*storage.Relation, error)) *Breaker2 {
	return &Breaker2{base: base{label: label}, left: left, right: right, kernel: kernel}
}

// SetDOP records the plan's chosen degree of parallelism for stats display;
// the kernel closure applies the same value itself.
func (b *Breaker2) SetDOP(dop int) { b.dop = dop }

// Open implements Operator.
func (b *Breaker2) Open(ec *ExecContext) error {
	b.out, b.pos = nil, 0
	b.stats.DOP = int64(ec.EffectiveDOP(b.dop))
	if err := b.left.Open(ec); err != nil {
		return err
	}
	return b.right.Open(ec)
}

// Next implements Operator.
func (b *Breaker2) Next(ec *ExecContext) (*storage.Relation, error) {
	defer b.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if b.out == nil {
		ctl := ec.CtlFor(b)
		var l, r *storage.Relation
		var lRows, rRows int64
		// Both drains reserve into b.held concurrently (atomic adds), so a
		// failed side's sibling reservations still release in Close.
		err := ec.Pool.Run(
			func() error {
				var err error
				l, lRows, err = drain(ec, ctl, b.left, &b.held)
				return err
			},
			func() error {
				var err error
				r, rRows, err = drain(ec, ctl, b.right, &b.held)
				return err
			},
		)
		if err != nil {
			return nil, err
		}
		b.addRowsIn(lRows + rRows)
		if err := faultinject.Fire(faultinject.PointExecBreaker); err != nil {
			return nil, err
		}
		out, err := b.kernel(ec, l, r)
		if err != nil {
			return nil, err
		}
		// As in Breaker1: both drained inputs are dead after the kernel, so
		// their reservation goes back once the output is charged.
		inHeld := atomic.SwapInt64(&b.held, 0)
		defer ctl.Release(inHeld)
		if n := out.MemBytes(); n > 0 {
			if err := ctl.Reserve(n); err != nil {
				return nil, err
			}
			atomic.AddInt64(&b.held, n)
		}
		b.out = out
		b.peak(l.MemBytes() + r.MemBytes() + out.MemBytes())
	}
	return emitChunk(ec, &b.base, b.out, &b.pos)
}

// Close implements Operator.
func (b *Breaker2) Close(ec *ExecContext) error {
	ec.Ctl().Release(atomic.SwapInt64(&b.held, 0))
	err := b.left.Close(ec)
	if err2 := b.right.Close(ec); err == nil {
		err = err2
	}
	return err
}

// Children implements Operator.
func (b *Breaker2) Children() []Operator { return []Operator{b.left, b.right} }

// ---------------------------------------------------------------------------
// Shared helpers.

// drain pulls op to exhaustion and concatenates the batches, returning the
// consumed row count alongside. It does not touch the caller's stats:
// Breaker2 runs two drains concurrently that feed the same RowsIn counter,
// so the credit happens after the pool barrier. The accumulated batch bytes
// are reserved against the query budget into *held (atomically — Breaker2's
// two drains share one holder), which the caller releases in Close. ctl is
// the draining operator's labelled governance handle, so a budget failure
// mid-drain names the breaker that was materialising its input.
func drain(ec *ExecContext, ctl *govern.Ctl, op Operator, held *int64) (*storage.Relation, int64, error) {
	parts := getParts()
	defer func() { putParts(parts) }() // closure: parts may be regrown by append
	var rows int64
	for {
		if err := ec.Err(); err != nil {
			return nil, 0, err
		}
		if err := faultinject.Fire(faultinject.PointExecDrainBatch); err != nil {
			return nil, 0, err
		}
		batch, err := op.Next(ec)
		if err != nil {
			return nil, 0, err
		}
		if batch == nil {
			break
		}
		ec.Counters.tick(batch.NumRows())
		rows += int64(batch.NumRows())
		if batch.NumRows() > 0 || len(parts) == 0 {
			if n := batch.MemBytes(); n > 0 {
				if err := ctl.Reserve(n); err != nil {
					return nil, 0, err
				}
				atomic.AddInt64(held, n)
			}
			parts = append(parts, batch)
		}
	}
	rel, err := storage.Concat(parts)
	if err != nil {
		return nil, 0, err
	}
	return rel, rows, nil
}

// emitChunk streams the next morsel-sized window of a materialised result,
// guaranteeing at least one (possibly empty) batch before exhaustion.
// Operators are single-use (a fresh tree is compiled per execution), so
// Batches > 0 doubles as the "schema already emitted" marker.
func emitChunk(ec *ExecContext, b *base, out *storage.Relation, pos *int) (*storage.Relation, error) {
	n := out.NumRows()
	if *pos >= n {
		if atomic.LoadInt64(&b.stats.Batches) > 0 {
			return nil, nil
		}
		batch := out.Slice(0, 0)
		b.emitted(batch)
		return batch, nil
	}
	hi := *pos + ec.MorselSize
	if hi > n {
		hi = n
	}
	batch := out.Slice(*pos, hi)
	*pos = hi
	atomic.AddInt64(&b.stats.Batches, 1)
	atomic.AddInt64(&b.stats.RowsOut, int64(batch.NumRows()))
	return batch, nil
}
