// Package govern provides per-query resource governance: a memory Budget
// that allocating operators reserve against, a Ctl handle that threads the
// budget, cancellation and the query's scratch arena into kernels, and an
// admission Gate that bounds concurrent queries.
//
// Everything here is nil-receiver safe: a nil *Budget or nil *Ctl is an
// unlimited, never-cancelled no-op, so kernels call Reserve/Err
// unconditionally and ungoverned paths (the bulk interpreter, direct kernel
// tests) pay only a nil check.
package govern

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dqo/internal/qerr"
	"dqo/internal/storage"
)

// Budget is a per-query memory account. Operators Reserve before allocating
// and Release when the allocation dies; Reserve fails with a typed
// qerr.ErrMemoryBudgetExceeded once the running total would pass the limit.
// All methods are safe for concurrent use and on a nil receiver (nil =
// unlimited, nothing tracked).
type Budget struct {
	limit int64 // immutable after NewBudget; 0 means track-only, no limit
	kind  error // taxonomy sentinel Reserve fails with; nil = ErrMemoryBudgetExceeded
	used  atomic.Int64
	peak  atomic.Int64
}

// NewBudget returns a budget enforcing the given limit in bytes. limit <= 0
// means "track usage but never fail".
func NewBudget(limit int64) *Budget {
	if limit < 0 {
		limit = 0
	}
	return &Budget{limit: limit}
}

// NewDiskBudget returns a budget accounting spilled disk bytes: same
// semantics as NewBudget, but Reserve fails with a typed
// qerr.ErrSpillLimitExceeded instead of the memory sentinel.
func NewDiskBudget(limit int64) *Budget {
	if limit < 0 {
		limit = 0
	}
	return &Budget{limit: limit, kind: qerr.ErrSpillLimitExceeded}
}

// Reserve adds n bytes to the account, failing (and leaving the account
// unchanged) if that would exceed the limit. n <= 0 is a no-op.
func (b *Budget) Reserve(n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	used := b.used.Add(n)
	if b.limit > 0 && used > b.limit {
		b.used.Add(-n)
		kind := b.kind
		noun := "in use"
		if kind == nil {
			kind = qerr.ErrMemoryBudgetExceeded
		} else {
			noun = "spilled"
		}
		return qerr.New(kind,
			"need %d bytes, %d of %d %s", n, used-n, b.limit, noun)
	}
	for {
		p := b.peak.Load()
		if used <= p || b.peak.CompareAndSwap(p, used) {
			return nil
		}
	}
}

// Release returns n bytes to the account. n <= 0 is a no-op.
func (b *Budget) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.used.Add(-n)
}

// Used reports the bytes currently reserved.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak reports the high-water mark of reserved bytes.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// Limit reports the configured limit (0 = unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Ctl is the governance handle threaded into kernels: cancellation plus the
// memory budget, an optional disk budget for spilled run files, the query's
// scratch arena, and the label of the operator the handle was cut for (so a
// failed Reserve names the culprit kernel). A nil *Ctl never cancels, never
// limits and has no arena, so kernels can call its methods unconditionally.
type Ctl struct {
	Ctx  context.Context
	Mem  *Budget
	Disk *Budget // spilled-bytes account; nil = spilling untracked
	// Scratch is the arena the query's intermediate arrays are drawn from,
	// recycled once when the query ends; nil = fresh arrays.
	Scratch *storage.Scratch
	Label   string // requesting operator, prefixed onto budget failures
}

// Arena returns the handle's scratch arena: nil on a nil receiver, which
// draws fresh arrays.
func (c *Ctl) Arena() *storage.Scratch {
	if c == nil {
		return nil
	}
	return c.Scratch
}

// For returns a copy of the handle labelled with the requesting operator, so
// budget failures inside that operator's kernels name it. Nil receiver or
// empty label returns the handle unchanged.
func (c *Ctl) For(label string) *Ctl {
	if c == nil || label == "" || c.Label == label {
		return c
	}
	n := *c
	n.Label = label
	return &n
}

// Err reports the query's cancellation state mapped onto the error taxonomy
// (ErrCancelled / ErrTimeout), the latter also once the context's deadline
// has passed while its timer has not fired yet: with a single P the timer
// waits for the running kernel to be preempted, which can be longer than
// the query. Nil receiver or nil context never cancels.
func (c *Ctl) Err() error {
	if c == nil || c.Ctx == nil {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		return qerr.From(err)
	}
	if d, ok := c.Ctx.Deadline(); ok && !time.Now().Before(d) {
		return qerr.From(context.DeadlineExceeded)
	}
	return nil
}

// Reserve charges n bytes against the budget (no-op on nil receiver). When
// the handle is labelled, a budget failure is re-issued with the operator
// label prefixed so post-mortems can name the kernel that hit the wall.
func (c *Ctl) Reserve(n int64) error {
	if c == nil {
		return nil
	}
	return c.label(c.Mem.Reserve(n))
}

// ReserveDisk charges n spilled bytes against the disk budget (no-op on nil
// receiver or when no disk budget is configured).
func (c *Ctl) ReserveDisk(n int64) error {
	if c == nil {
		return nil
	}
	return c.label(c.Disk.Reserve(n))
}

// ReleaseDisk returns n spilled bytes to the disk budget.
func (c *Ctl) ReleaseDisk(n int64) {
	if c == nil {
		return
	}
	c.Disk.Release(n)
}

// label prefixes the operator label onto a typed budget error.
func (c *Ctl) label(err error) error {
	if err == nil || c.Label == "" {
		return err
	}
	var qe *qerr.Error
	if errors.As(err, &qe) {
		return &qerr.Error{Kind: qe.Kind, Cause: qe.Cause,
			Msg: "operator " + c.Label + ": " + qe.Msg, Stack: qe.Stack}
	}
	return err
}

// Release returns n bytes to the budget (no-op on nil receiver).
func (c *Ctl) Release(n int64) {
	if c == nil {
		return
	}
	c.Mem.Release(n)
}

// Spill-grant policy: how much working memory a spilling operator may hold
// before it must flush a run to disk. A quarter of the memory budget keeps
// run files large enough to merge in one pass for modest overcommits, while
// the floor stops degenerate budgets from producing per-row frames.
const (
	minSpillRun     = 32 << 10 // 32 KiB floor on the in-memory run quota
	defaultSpillRun = 8 << 20  // run quota when the query is unlimited
)

// SpillRunQuota reports the spill grant for a query governed by mem: the
// byte size a spilling operator's in-memory run may reach before it must be
// flushed to disk. Unlimited budgets get a fixed default so spill-enabled
// operators still bound their buffering.
func SpillRunQuota(mem *Budget) int64 {
	if mem.Limit() <= 0 {
		return defaultSpillRun
	}
	q := mem.Limit() / 4
	if q < minSpillRun {
		q = minSpillRun
	}
	return q
}

// Gate is a DB-level admission controller: at most maxActive queries run at
// once, at most maxQueue more wait for a slot, and anything beyond that is
// rejected immediately with qerr.ErrQueueFull. The zero-value / nil Gate
// admits everything.
type Gate struct {
	active chan struct{} // slot tokens; nil = unlimited
	queue  atomic.Int64  // waiters currently queued
	maxQ   int64
}

// NewGate builds a gate admitting maxActive concurrent queries with a wait
// queue of maxQueue. maxActive <= 0 returns a nil (unlimited) gate.
func NewGate(maxActive, maxQueue int) *Gate {
	if maxActive <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Gate{active: make(chan struct{}, maxActive), maxQ: int64(maxQueue)}
}

// Enter acquires an execution slot, waiting in the bounded queue if all
// slots are busy. It returns a release function to be called exactly once
// when the query finishes, or a typed error: qerr.ErrQueueFull when the
// queue is full, qerr.ErrCancelled/ErrTimeout when ctx dies while waiting.
func (g *Gate) Enter(ctx context.Context) (release func(), err error) {
	if g == nil || g.active == nil {
		return func() {}, nil
	}
	// Fast path: a free slot, no queueing.
	select {
	case g.active <- struct{}{}:
		return g.leaveOnce(), nil
	default:
	}
	// Slow path: join the bounded queue.
	if q := g.queue.Add(1); q > g.maxQ {
		g.queue.Add(-1)
		return nil, qerr.New(qerr.ErrQueueFull,
			"%d queries running, %d queued", cap(g.active), g.maxQ)
	}
	defer g.queue.Add(-1)
	select {
	case g.active <- struct{}{}:
		return g.leaveOnce(), nil
	case <-ctx.Done():
		return nil, qerr.From(ctx.Err())
	}
}

func (g *Gate) leaveOnce() func() {
	var once sync.Once
	return func() { once.Do(func() { <-g.active }) }
}

// Running reports how many queries currently hold a slot.
func (g *Gate) Running() int {
	if g == nil || g.active == nil {
		return 0
	}
	return len(g.active)
}

// Queued reports how many queries are currently waiting for a slot.
func (g *Gate) Queued() int {
	if g == nil {
		return 0
	}
	return int(g.queue.Load())
}

// TenantGates is a registry of per-tenant admission gates: each distinct
// tenant string gets its own Gate with the same maxActive/maxQueue shape,
// created lazily on first use. It layers a fairness boundary on top of the
// DB-level gate — one tenant saturating its slots queues (then sheds) its
// own requests without starving the others. A nil *TenantGates admits
// everything, so ungoverned servers pay only a nil check.
type TenantGates struct {
	mu        sync.Mutex
	gates     map[string]*Gate
	maxActive int
	maxQueue  int
}

// NewTenantGates builds a registry whose per-tenant gates admit maxActive
// concurrent queries with a wait queue of maxQueue. maxActive <= 0 returns a
// nil (unlimited) registry.
func NewTenantGates(maxActive, maxQueue int) *TenantGates {
	if maxActive <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &TenantGates{
		gates:     make(map[string]*Gate),
		maxActive: maxActive,
		maxQueue:  maxQueue,
	}
}

// Gate returns the tenant's admission gate, creating it on first use. The
// empty tenant shares one gate like any other name.
func (t *TenantGates) Gate(tenant string) *Gate {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.gates[tenant]
	if g == nil {
		g = NewGate(t.maxActive, t.maxQueue)
		t.gates[tenant] = g
	}
	return g
}

// Enter acquires a slot in the tenant's gate — the same contract as
// Gate.Enter: a release function on success, qerr.ErrQueueFull when the
// tenant's queue is full, a cancellation error when ctx dies while queued.
func (t *TenantGates) Enter(ctx context.Context, tenant string) (release func(), err error) {
	return t.Gate(tenant).Enter(ctx)
}

// Stats reports each known tenant's running and queued counts, keyed by
// tenant name. Nil registries report nothing.
func (t *TenantGates) Stats() map[string]GateStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]GateStat, len(t.gates))
	for name, g := range t.gates {
		out[name] = GateStat{Running: g.Running(), Queued: g.Queued()}
	}
	return out
}

// GateStat is one gate's occupancy snapshot.
type GateStat struct {
	Running int
	Queued  int
}
