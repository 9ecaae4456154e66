package exec

import (
	"sync/atomic"

	"dqo/internal/faultinject"
	"dqo/internal/govern"
	"dqo/internal/physical"
	"dqo/internal/qerr"
	"dqo/internal/storage"
)

// ---------------------------------------------------------------------------
// Materialize: the one materialising operator.

// Materialize builds a whole relation on its first Next and streams it out
// in morsel chunks. It is every operator that must hold its result before
// emitting any of it, in one of three ways:
//
//   - a source has no inputs and a produce function over a base table: a
//     cracked-index probe (NewIndexScan), a compressed decode
//     (NewCompressedScan) or a compressed range filter (NewCompressedFilter);
//   - a breaker (NewBreaker: sort, grouping, join) drains one or two inputs
//     and runs the plan node's kernel over them once;
//   - a breaker that may spill has a spill strategy besides (SortRuns,
//     GroupPartitions, JoinPartitions), which holds the input and flushes it
//     to disk past the spill grant. If nothing was flushed the kernel runs
//     as it does for the plain breaker; otherwise the strategy produces the
//     output from disk.
//
// Everything the operator reserves goes through one holder labelled with the
// operator — drained batches, spill buffers, a source's result, the kernel's
// working memory, the output — so a budget failure anywhere inside names it,
// and Close returns whatever is still held.
type Materialize struct {
	base
	inputs  []Operator
	produce func(ec *ExecContext, h *holder) (*storage.Relation, error) // sources
	kernel  Kernel                                                      // breakers
	spill   SpillStrategy                                               // nil: the input is held in memory
	dop     int
	h       holder
	out     *storage.Relation
	pos     int
}

// Kernel is a breaker's whole-relation kernel over its drained inputs. ctl is
// the breaker's labelled governance handle: the kernel reserves its working
// memory through it, so a budget failure inside the kernel names the breaker.
type Kernel func(ec *ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error)

// NewBreaker returns a pipeline breaker that drains inputs (one or two) and
// runs kernel over them once. spill, when non-nil, is how the breaker holds
// its input once it passes the spill grant; nil holds it in memory.
func NewBreaker(label Labeler, kernel Kernel, spill SpillStrategy, inputs ...Operator) *Materialize {
	m := &Materialize{base: base{label: label}, inputs: inputs, kernel: kernel, spill: spill}
	m.h.b = &m.base
	return m
}

// newSource returns a materialising operator without inputs: produce builds
// the relation, reserving it through the holder.
func newSource(label Labeler, produce func(*ExecContext, *holder) (*storage.Relation, error)) *Materialize {
	m := &Materialize{base: base{label: label}, produce: produce}
	m.h.b = &m.base
	return m
}

// SetDOP records the plan's chosen degree of parallelism for stats display;
// the kernel applies the same value itself.
func (m *Materialize) SetDOP(dop int) { m.dop = dop }

// Open implements Operator.
func (m *Materialize) Open(ec *ExecContext) error {
	m.out, m.pos = nil, 0
	m.stats.DOP = int64(ec.EffectiveDOP(m.dop))
	for _, in := range m.inputs {
		if err := in.Open(ec); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Operator. Operators are single-use (a fresh tree is
// compiled per execution), so Batches > 0 doubles as the "schema already
// emitted" marker.
func (m *Materialize) Next(ec *ExecContext) (*storage.Relation, error) {
	defer m.timed()()
	if err := ec.Err(); err != nil {
		return nil, err
	}
	if m.out == nil {
		m.h.ctl = ec.CtlFor(m)
		out, err := m.materialize(ec)
		if err != nil {
			return nil, err
		}
		m.out = out
	}
	n := m.out.NumRows()
	if m.pos >= n {
		if atomic.LoadInt64(&m.stats.Batches) > 0 {
			return nil, nil
		}
		batch := m.out.Slice(0, 0)
		m.emitted(batch)
		return batch, nil
	}
	hi := min(m.pos+ec.MorselSize, n)
	batch := m.out.Slice(m.pos, hi)
	m.pos = hi
	atomic.AddInt64(&m.stats.Batches, 1)
	atomic.AddInt64(&m.stats.RowsOut, physical.Rows(batch))
	return batch, nil
}

// Close implements Operator.
func (m *Materialize) Close(ec *ExecContext) error {
	if m.spill != nil {
		m.spill.abort()
	}
	ec.Ctl().Release(m.h.swap())
	var err error
	for _, in := range m.inputs {
		if cerr := in.Close(ec); err == nil {
			err = cerr
		}
	}
	return err
}

// Children implements Operator.
func (m *Materialize) Children() []Operator { return m.inputs }

// materialize builds the relation the operator streams. Once the kernel has
// consumed them the drained inputs are dead, so their reservation goes back:
// an in-memory breaker charges its output first and then releases them, a
// breaker that may spill but did not releases them first. Under a tight limit
// that order decides whether a query completes, so each path keeps its own.
func (m *Materialize) materialize(ec *ExecContext) (*storage.Relation, error) {
	if m.produce != nil {
		out, err := m.produce(ec, &m.h)
		if err != nil {
			return nil, err
		}
		m.peak(out.MemBytes())
		return out, nil
	}
	in := make([]*storage.Relation, len(m.inputs))
	rows, err := m.drain(ec, in)
	if err != nil {
		return nil, err
	}
	m.addRowsIn(rows)
	if err := faultinject.Fire(faultinject.PointExecBreaker); err != nil {
		return nil, err
	}
	if m.spill != nil {
		whole, out, err := m.spill.finish(ec, &m.h, in)
		if err != nil || out != nil {
			return out, err
		}
		if out, err = m.kernel(ec, m.h.ctl, whole...); err != nil {
			return nil, err
		}
		m.h.ctl.Release(m.h.swap())
		if err := m.h.grab(out.MemBytes()); err != nil {
			return nil, err
		}
		return out, nil
	}
	out, err := m.kernel(ec, m.h.ctl, in...)
	if err != nil {
		return nil, err
	}
	inHeld := m.h.swap()
	defer m.h.ctl.Release(inHeld)
	if err := m.h.take(out.MemBytes()); err != nil {
		return nil, err
	}
	peak := out.MemBytes()
	for _, r := range in {
		peak += r.MemBytes()
	}
	m.peak(peak)
	return out, nil
}

// drain pulls every input to exhaustion and returns the rows consumed. A
// breaker that may spill drains its inputs one after the other, handing every
// non-empty batch to its strategy, and sets in[i] to input i's first batch:
// its schema. Any other breaker drains them concurrently on the worker pool,
// reserving every batch into the holder, and sets in[i] to input i whole — a
// view of the producer's batch when there was only one.
func (m *Materialize) drain(ec *ExecContext, in []*storage.Relation) (int64, error) {
	rows := make([]int64, len(m.inputs))
	if m.spill != nil {
		for i, op := range m.inputs {
			first, n, err := pull(ec, op, func(batch *storage.Relation) error {
				if batch.NumRows() == 0 {
					return nil
				}
				return m.spill.add(ec, &m.h, i, batch)
			})
			if err != nil {
				return 0, err
			}
			in[i], rows[i] = first, n
		}
	} else {
		fns := make([]func() error, len(m.inputs))
		for i, op := range m.inputs {
			fns[i] = func() error {
				var err error
				in[i], rows[i], err = m.hold(ec, op)
				return err
			}
		}
		if err := ec.Pool.Run(fns...); err != nil {
			return 0, err
		}
	}
	var total int64
	for i, r := range in {
		if r == nil {
			return 0, qerr.New(qerr.ErrInternal, "exec: %s: input %d emitted no batch", m.Label(), i)
		}
		total += rows[i]
	}
	return total, nil
}

// hold drains op into memory, reserving every batch into the holder, and
// returns it whole (nil if it emitted no batch) with its row count.
func (m *Materialize) hold(ec *ExecContext, op Operator) (*storage.Relation, int64, error) {
	parts := getParts()
	defer func() { putParts(parts) }() // closure: parts may be regrown by append
	first, rows, err := pull(ec, op, func(batch *storage.Relation) error {
		if batch.NumRows() == 0 && len(parts) > 0 {
			return nil
		}
		if err := m.h.take(batch.MemBytes()); err != nil {
			return err
		}
		parts = append(parts, batch)
		return nil
	})
	if err != nil || first == nil {
		return nil, 0, err
	}
	rel, err := storage.Concat(m.h.ctl.Arena(), parts)
	return rel, rows, err
}

// pull drains op to exhaustion, handing every batch to sink, and returns the
// first batch and the rows consumed (a weighted batch counts the rows it
// stands for, physical.Rows). Cancellation is checked at every batch
// boundary, and every batch ticks the context's counters: a breaker's drain
// is a pipeline boundary.
func pull(ec *ExecContext, op Operator, sink func(*storage.Relation) error) (*storage.Relation, int64, error) {
	var first *storage.Relation
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
			return first, rows, nil
		}
		n := physical.Rows(batch)
		ec.Counters.tick(int(n))
		rows += n
		if first == nil {
			first = batch
		}
		if err := sink(batch); err != nil {
			return nil, 0, err
		}
	}
}

// holder is a materialising operator's one reservation against the query
// budget: everything the operator charges goes through its labelled handle
// into held, and Close returns whatever is left. held is atomic because a
// breaker drains its inputs from two goroutines into it.
type holder struct {
	ctl  *govern.Ctl
	held atomic.Int64
	b    *base // the operator, whose peak grab raises
}

// take reserves n bytes.
func (h *holder) take(n int64) error {
	if n <= 0 {
		return nil
	}
	if err := h.ctl.Reserve(n); err != nil {
		return err
	}
	h.held.Add(n)
	return nil
}

// grab reserves n bytes and raises the operator's peak to everything held.
func (h *holder) grab(n int64) error {
	if n <= 0 {
		return nil
	}
	if err := h.ctl.Reserve(n); err != nil {
		return err
	}
	h.b.peak(h.held.Add(n))
	return nil
}

// drop releases n bytes.
func (h *holder) drop(n int64) {
	if n <= 0 {
		return
	}
	h.ctl.Release(n)
	h.held.Add(-n)
}

// swap empties the holder and returns what it held, for the caller to
// release.
func (h *holder) swap() int64 { return h.held.Swap(0) }

// gather reserves the rows idx selects from rel, at rel's per-row footprint,
// and then gathers them.
func (h *holder) gather(rel *storage.Relation, idx []int32) (*storage.Relation, error) {
	if n := rel.NumRows(); n > 0 {
		if err := h.take(int64(len(idx)) * (rel.MemBytes() / int64(n))); err != nil {
			return nil, err
		}
	}
	return rel.Gather(h.ctl.Arena(), idx), nil
}

// NewIndexScan returns the source answering an AV-backed range filter: the
// adaptive (cracked) index yields base-table row positions, which are
// gathered once. It replaces the scan+filter pair — the index is positional,
// so it must see the base table whole. probe returns the selected row
// positions (and may refine the index as a side effect).
func NewIndexScan(label Labeler, rel *storage.Relation, probe func() []int32) *Materialize {
	return newSource(label, func(_ *ExecContext, h *holder) (*storage.Relation, error) {
		h.b.addRowsIn(int64(rel.NumRows()))
		return h.gather(rel, probe())
	})
}
