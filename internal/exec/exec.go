// Package exec is the unified morsel-driven execution layer. Every physical
// operator implements the same Open/Next/Close interface over fixed-size
// morsels of column data (zero-copy storage.Relation row-range views), with
// an ExecContext carrying context.Context cancellation, a bounded worker
// pool, and per-operator counters (rows in/out, batches, wall time, peak
// allocation).
//
// Streaming operators (scan, filter, project, limit) process one morsel at
// a time; everything else is one materialising operator (Materialize).
// Pipeline breakers (sort, join, group) keep their whole-relation kernel
// cores but adopt the interface: they drain their inputs morsel by morsel —
// join inputs concurrently via the worker pool — run the bulk kernel once,
// and stream the result back out in morsel chunks; a spill twin is the same
// breaker with a spill strategy, and a whole-table source the same operator
// without inputs. The plan →
// operator-tree compiler lives in internal/core; this package is
// deliberately plan-agnostic.
//
// Protocol invariants:
//   - Next returns (nil, nil) when exhausted.
//   - Every operator emits at least one (possibly empty) batch before
//     exhaustion, so the schema always reaches the consumer.
//   - Next checks cancellation at every batch boundary, so a cancelled
//     query unwinds within one morsel of work per pipeline stage.
package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dqo/internal/faultinject"
	"dqo/internal/govern"
	"dqo/internal/obs"
	"dqo/internal/qerr"
	"dqo/internal/spill"
	"dqo/internal/storage"
)

// DefaultMorselSize is the batch row count used when the caller does not
// choose one. Large enough to amortise per-batch overhead, small enough
// that a morsel of a handful of columns stays L2-resident.
const DefaultMorselSize = 4096

// Operator is the uniform execution interface. Operators are single-use:
// Open, a sequence of Next calls, Close.
type Operator interface {
	// Label describes the operator for EXPLAIN/stats output.
	Label() string
	// Open prepares the operator (and recursively its inputs) for Next.
	Open(ec *ExecContext) error
	// Next returns the next batch, or (nil, nil) when exhausted.
	Next(ec *ExecContext) (*storage.Relation, error)
	// Close releases resources. It must be safe after a failed Open/Next.
	Close(ec *ExecContext) error
	// Stats exposes the operator's execution counters.
	Stats() *OpStats
	// Children returns the input operators, for profile traversal.
	Children() []Operator
}

// ExecContext carries the per-query execution state shared by every
// operator in one plan: cancellation, the morsel size, the worker pool used
// by parallel drains, and the query's memory budget.
type ExecContext struct {
	ctx        context.Context
	MorselSize int
	Pool       *Pool
	ctl        *govern.Ctl
	// Counters, when non-nil, receives one atomic tick per morsel batch
	// consumed at a pipeline boundary. Owned by the DB (cumulative across
	// queries); nil disables counting at the cost of a nil check.
	Counters *Counters
	// Tables, when non-nil, is offered the join tables the query builds over
	// whole base-table columns (see TableOffer); nil keeps every build
	// private to its join.
	Tables TableTaker

	// Spill-to-disk state: operators that outgrow the memory budget write
	// runs into a lazily created per-query spill.Dir under spillParent.
	// Empty spillParent disables spilling. spillQuota, when positive,
	// overrides the budget-derived run quota (tests and benchmarks use it to
	// force flushing without starving the memory budget).
	spillParent string
	spillQuota  int64
	spillMu     sync.Mutex
	spillDir    *spill.Dir
}

// NewExecContext returns an execution context. morsel <= 0 selects
// DefaultMorselSize; workers <= 0 selects the pool default.
func NewExecContext(ctx context.Context, morsel, workers int) *ExecContext {
	return NewExecContextBudget(ctx, morsel, workers, nil)
}

// NewExecContextBudget is NewExecContext with a per-query memory budget that
// materialising operators reserve against; nil means unlimited.
func NewExecContextBudget(ctx context.Context, morsel, workers int, mem *govern.Budget) *ExecContext {
	if ctx == nil {
		ctx = context.Background()
	}
	if morsel <= 0 {
		morsel = DefaultMorselSize
	}
	return &ExecContext{
		ctx: ctx, MorselSize: morsel, Pool: NewPool(workers),
		ctl: &govern.Ctl{Ctx: ctx, Mem: mem},
	}
}

// SetSpill enables spill-to-disk execution: operators that outgrow the
// memory budget may write runs into a per-query temp directory under dir,
// with at most limit bytes on disk at once (0 = unlimited).
func (ec *ExecContext) SetSpill(dir string, limit int64) {
	ec.spillParent = dir
	if dir != "" {
		ec.ctl.Disk = govern.NewDiskBudget(limit)
	}
}

// Spill returns the query's spill directory, creating it on first use.
func (ec *ExecContext) Spill() (*spill.Dir, error) {
	if ec.spillParent == "" {
		return nil, qerr.New(qerr.ErrInternal, "spill requested but no spill directory configured")
	}
	ec.spillMu.Lock()
	defer ec.spillMu.Unlock()
	if ec.spillDir == nil {
		d, err := spill.NewDir(ec.spillParent, ec.ctl)
		if err != nil {
			return nil, err
		}
		ec.spillDir = d
	}
	return ec.spillDir, nil
}

// CleanupSpill removes the query's spill directory, if one was created. It
// runs from Run's deferred close path, so cancelled and panicking queries
// still delete their temp files. A later Run on the same context would
// lazily create a fresh directory.
func (ec *ExecContext) CleanupSpill() error {
	ec.spillMu.Lock()
	d := ec.spillDir
	ec.spillDir = nil
	ec.spillMu.Unlock()
	return d.Cleanup()
}

// SpillQuota reports the spill grant: the bytes a spilling operator may
// buffer in memory before it must flush a run to disk.
func (ec *ExecContext) SpillQuota() int64 {
	if ec.spillQuota > 0 {
		return ec.spillQuota
	}
	return govern.SpillRunQuota(ec.ctl.Mem)
}

// SetSpillQuota overrides the budget-derived run quota (<= 0 restores the
// default). Tests and benchmarks use a tiny quota to force every spilling
// operator onto its disk path without also starving the memory budget.
func (ec *ExecContext) SetSpillQuota(n int64) { ec.spillQuota = n }

// Context returns the cancellation context.
func (ec *ExecContext) Context() context.Context { return ec.ctx }

// Ctl returns the governance handle (cancellation + memory budget) threaded
// into kernels. Never nil.
func (ec *ExecContext) Ctl() *govern.Ctl { return ec.ctl }

// CtlFor returns the governance handle labelled with the requesting
// operator, so budget failures name the culprit kernel. Only a budget can
// fail a reservation, so without one the label is not rendered.
func (ec *ExecContext) CtlFor(op Labeler) *govern.Ctl {
	if ec.ctl.Mem == nil && ec.ctl.Disk == nil {
		return ec.ctl
	}
	return ec.ctl.For(op.Label())
}

// Err returns the context's cancellation error mapped onto the error
// taxonomy (qerr.ErrCancelled / qerr.ErrTimeout), if any.
func (ec *ExecContext) Err() error { return ec.ctl.Err() }

// EffectiveDOP clamps a plan's chosen degree of parallelism to the
// context's worker-pool size; the result is always >= 1.
func (ec *ExecContext) EffectiveDOP(planned int) int {
	if planned < 1 {
		planned = 1
	}
	if w := ec.Pool.Workers(); planned > w {
		planned = w
	}
	return planned
}

// OpStats are the per-operator execution counters. Wall time is inclusive
// of children (operators pull synchronously); the profile derives self time
// by subtraction. All counters are updated with atomic adds — parallel
// pipelines have several workers feeding one operator's stats — but the
// fields stay plain int64 so a profile snapshot is an ordinary struct copy.
type OpStats struct {
	RowsIn    int64         // rows pulled from inputs
	RowsOut   int64         // rows emitted
	Batches   int64         // batches emitted
	Wall      time.Duration // time spent in Next, inclusive of children
	PeakBytes int64         // high-water estimate of bytes held (batches + materialised state)
	DOP       int64         // effective degree of parallelism (0 = serial operator)
	Replans   int64         // mid-query re-planning splices taken at this operator

	SpillBytes  int64 // bytes written to spill run files by this operator
	SpillParts  int64 // spill partitions / runs written
	SpillPasses int64 // extra passes over spilled data (repartition or merge rounds)
}

// Labeler names an operator for EXPLAIN/stats output. An operator keeps the
// source and renders the text when a profile or a trace is read: rendering a
// plan node's label costs more than lowering the node, and the labels of
// most executions are never looked at.
type Labeler interface{ Label() string }

// Text is a Labeler of fixed text.
type Text string

// Label implements Labeler.
func (t Text) Label() string { return string(t) }

// base supplies the label/stats boilerplate shared by all operators.
type base struct {
	label Labeler
	stats OpStats
}

func (b *base) Label() string   { return b.label.Label() }
func (b *base) source() Labeler { return b.label }
func (b *base) Stats() *OpStats { return &b.stats }

// timed starts the inclusive wall clock for one Next call; invoke the
// returned func on exit (defer).
func (b *base) timed() func() {
	start := time.Now()
	return func() { atomic.AddInt64((*int64)(&b.stats.Wall), int64(time.Since(start))) }
}

// addRowsIn credits rows pulled from an input.
func (b *base) addRowsIn(n int64) { atomic.AddInt64(&b.stats.RowsIn, n) }

// peak raises the high-water byte estimate to at least n.
func (b *base) peak(n int64) {
	for {
		old := atomic.LoadInt64(&b.stats.PeakBytes)
		if n <= old || atomic.CompareAndSwapInt64(&b.stats.PeakBytes, old, n) {
			return
		}
	}
}

// NoteReplan counts one mid-query re-planning of the operator's kernel
// (recorded by the core compiler's reoptimising breaker wrappers).
func (b *base) NoteReplan() { atomic.AddInt64(&b.stats.Replans, 1) }

// addSpill credits spilled bytes, runs, and extra passes.
func (b *base) addSpill(bytes, parts, passes int64) {
	atomic.AddInt64(&b.stats.SpillBytes, bytes)
	atomic.AddInt64(&b.stats.SpillParts, parts)
	atomic.AddInt64(&b.stats.SpillPasses, passes)
}

// emitted records an outgoing batch.
func (b *base) emitted(batch *storage.Relation) {
	atomic.AddInt64(&b.stats.Batches, 1)
	atomic.AddInt64(&b.stats.RowsOut, int64(batch.NumRows()))
	b.peak(batch.MemBytes())
}

// snapshot returns an atomically loaded copy of the counters.
func (s *OpStats) snapshot() OpStats {
	return OpStats{
		RowsIn:    atomic.LoadInt64(&s.RowsIn),
		RowsOut:   atomic.LoadInt64(&s.RowsOut),
		Batches:   atomic.LoadInt64(&s.Batches),
		Wall:      time.Duration(atomic.LoadInt64((*int64)(&s.Wall))),
		PeakBytes: atomic.LoadInt64(&s.PeakBytes),
		DOP:       atomic.LoadInt64(&s.DOP),
		Replans:   atomic.LoadInt64(&s.Replans),

		SpillBytes:  atomic.LoadInt64(&s.SpillBytes),
		SpillParts:  atomic.LoadInt64(&s.SpillParts),
		SpillPasses: atomic.LoadInt64(&s.SpillPasses),
	}
}

// Run drives root to completion under ec and reassembles the emitted
// batches into one relation. On error (including cancellation) the
// operator tree is closed before returning, every error is mapped onto the
// qerr taxonomy, and a panic anywhere in the tree — a worker goroutine
// rethrown by its coordinator, or the drive loop itself — surfaces as a
// typed qerr.ErrInternal instead of killing the process.
//
// An unbounded run draws its intermediate arrays from a scratch arena on
// ec's handle and recycles them once, on the way out, whatever the outcome:
// after the tree is closed, so every worker has been joined. The arrays the
// returned relation views (a breaker's output streamed up as it is, a
// LIMIT's prefix of it) are not recycled; the caller owns them with the
// relation. A run under a memory budget or with spilling armed takes no
// arena and draws fresh arrays: the arena holds every array it hands out
// until the query ends, the budget cannot see the ones nobody reserves (a
// filter's morsel batches, a breaker's drained inputs), and a spill twin
// exists to hold one partition at a time.
func Run(ec *ExecContext, root Operator) (rel *storage.Relation, err error) {
	closed := false
	if ec.ctl.Mem == nil && ec.spillParent == "" {
		ec.ctl.Scratch = storage.NewScratch()
	}
	defer func() {
		ec.ctl.Scratch.Recycle(rel)
		ec.ctl.Scratch = nil
	}()
	defer func() {
		if r := recover(); r != nil {
			err = qerr.Internal(r, debug.Stack())
		}
		if !closed && err != nil {
			closed = true
			root.Close(ec) // releases operator reservations even on panic
		}
		// The spill directory outlives individual operators (runs may be
		// handed across merge passes); it dies with the query, whatever the
		// outcome. A failed cleanup on an otherwise successful query is a
		// resource leak and surfaces as a typed spill error.
		if cerr := ec.CleanupSpill(); cerr != nil && err == nil {
			err = cerr
		}
		if err == nil {
			return
		}
		rel = nil
		err = qerr.From(err)
	}()
	var held int64
	defer func() { ec.ctl.Release(held) }()
	if err := root.Open(ec); err != nil {
		return nil, err
	}
	parts := getParts()
	defer func() { putParts(parts) }() // closure: parts may be regrown by append
	for {
		if err := faultinject.Fire(faultinject.PointExecRunNext); err != nil {
			return nil, err
		}
		batch, err := root.Next(ec)
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		ec.Counters.tick(batch.NumRows())
		if batch.NumRows() > 0 || len(parts) == 0 {
			// The accumulated result is this loop's materialisation: charge it.
			if n := batch.MemBytes(); n > 0 {
				if err := ec.ctl.Reserve(n); err != nil {
					return nil, err
				}
				held += n
			}
			parts = append(parts, batch)
		}
	}
	closed = true
	if err := root.Close(ec); err != nil {
		return nil, err
	}
	return storage.Concat(nil, parts)
}

// partsPool recycles the batch-accumulator slices of Run and drain; only the
// slice headers are pooled (entries are nilled on release), never the
// relations they point to.
var partsPool = sync.Pool{
	New: func() any { return make([]*storage.Relation, 0, 64) },
}

func getParts() []*storage.Relation {
	return partsPool.Get().([]*storage.Relation)[:0]
}

func putParts(p []*storage.Relation) {
	for i := range p {
		p[i] = nil
	}
	partsPool.Put(p[:0]) //nolint:staticcheck // slice header allocation is amortised
}

// OpStat is one row of an execution profile: an operator's counters plus
// its position in the plan tree.
type OpStat struct {
	Label     string
	Depth     int
	RowsIn    int64
	RowsOut   int64
	Batches   int64
	Wall      time.Duration
	Self      time.Duration // Wall minus children's Wall
	PeakBytes int64
	DOP       int64 // effective degree of parallelism (1 = serial)
	Replans   int64 // mid-query re-planning splices taken at this operator

	SpillBytes  int64 // bytes written to spill run files
	SpillParts  int64 // spill partitions / runs written
	SpillPasses int64 // extra passes over spilled data
}

// Profile is the per-operator execution profile of one query, in pre-order
// (root first).
type Profile []OpStat

// Snapshot is a finished run's profile with the labels still unrendered:
// every operator's counters plus the source of its label. It references no
// operator, so holding one keeps no execution state alive.
type Snapshot struct {
	stats  Profile // Label left empty
	labels []Labeler
}

// Snap walks the operator tree and snapshots every operator's counters,
// deriving self time from the inclusive wall times.
func Snap(root Operator) Snapshot {
	s := Snapshot{stats: make(Profile, 0, 4), labels: make([]Labeler, 0, 4)}
	s.walk(root, 0)
	return s
}

func (s *Snapshot) walk(op Operator, depth int) {
	st := op.Stats().snapshot()
	kids := op.Children()
	self := st.Wall
	for _, c := range kids {
		self -= time.Duration(atomic.LoadInt64((*int64)(&c.Stats().Wall)))
	}
	if self < 0 {
		self = 0
	}
	dop := st.DOP
	if dop < 1 {
		dop = 1
	}
	s.stats = append(s.stats, OpStat{
		Depth:  depth,
		RowsIn: st.RowsIn, RowsOut: st.RowsOut, Batches: st.Batches,
		Wall: st.Wall, Self: self, PeakBytes: st.PeakBytes, DOP: dop,
		Replans:    st.Replans,
		SpillBytes: st.SpillBytes, SpillParts: st.SpillParts, SpillPasses: st.SpillPasses,
	})
	if b, ok := op.(interface{ source() Labeler }); ok {
		s.labels = append(s.labels, b.source())
	} else {
		s.labels = append(s.labels, Text(op.Label()))
	}
	for _, c := range kids {
		s.walk(c, depth+1)
	}
}

// Counters returns the snapshot's rows in pre-order with Label empty, for
// readers that want only the numbers. The slice is shared; do not mutate.
func (s Snapshot) Counters() Profile { return s.stats }

// Profile renders the labels into a copy of the snapshot's rows.
func (s Snapshot) Profile() Profile {
	if s.stats == nil {
		return nil
	}
	out := make(Profile, len(s.stats))
	copy(out, s.stats)
	for i, l := range s.labels {
		out[i].Label = l.Label()
	}
	return out
}

// CollectProfile snapshots the operator tree's counters and renders the
// labels: Snap(root).Profile().
func CollectProfile(root Operator) Profile { return Snap(root).Profile() }

// String renders the profile as an aligned table.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %10s %10s %8s %5s %12s %12s %10s\n",
		"operator", "rows_in", "rows_out", "batches", "dop", "wall", "self", "peak")
	for _, s := range p {
		label := strings.Repeat("  ", s.Depth) + s.Label
		if s.SpillBytes > 0 {
			label += fmt.Sprintf(" [spilled %d parts, %s]", s.SpillParts, obs.FmtBytes(s.SpillBytes))
		}
		dop := s.DOP
		if dop < 1 {
			dop = 1
		}
		fmt.Fprintf(&b, "%-42s %10d %10d %8d %5d %12s %12s %10s\n",
			label, s.RowsIn, s.RowsOut, s.Batches, dop,
			s.Wall.Round(time.Microsecond), s.Self.Round(time.Microsecond),
			obs.FmtBytes(s.PeakBytes))
	}
	return b.String()
}
