package physical

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/props"
	"dqo/internal/qerr"
	"dqo/internal/storage"
)

// pollCtx is a context that counts how often its cancellation state is
// polled and reports cancellation from the cancelAt-th poll on (never when
// cancelAt is 0).
type pollCtx struct {
	context.Context
	polls, cancelAt atomic.Int32
}

func (c *pollCtx) Err() error {
	if n, at := c.polls.Add(1), c.cancelAt.Load(); at > 0 && n >= at {
		return context.Canceled
	}
	return nil
}

// groupGovernInput is grouped, sorted and dense, so that every kernel
// applies: 64 blocks of rows in 1 000 groups.
func groupGovernInput() (keys []uint32, vals []int64, dom props.Domain) {
	rel := datagen.GroupingRelation(5, 64*groupBlock, 1000, datagen.Quadrant{Sorted: true, Dense: true})
	return rel.MustColumn("key").Uint32s(), rel.MustColumn("val").Int64s(), domainOf(rel, "key")
}

// TestGroupKernelsPollPerBlock: the row loops of all five kernels poll
// cancellation at block boundaries — no stretch of checkEvery rows passes
// without a poll — and the poll that reports the cancellation is the last
// thing the kernel does: it returns the typed error having folded at most
// the blocks before it, well within two checkEvery windows of the cancel,
// with nothing left reserved.
func TestGroupKernelsPollPerBlock(t *testing.T) {
	keys, vals, dom := groupGovernInput()
	for _, kind := range GroupKinds() {
		ctx := &pollCtx{Context: context.Background()}
		mem := govern.NewBudget(0)
		opt := GroupOptions{Ctl: &govern.Ctl{Ctx: ctx, Mem: mem}}
		if _, err := Group(kind, keys, vals, dom, opt); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if polls, windows := int(ctx.polls.Load()), len(keys)/checkEvery; polls < windows {
			t.Fatalf("%s: %d polls over %d checkEvery windows", kind, polls, windows)
		}

		const at = 5
		ctx = &pollCtx{Context: context.Background()}
		ctx.cancelAt.Store(at)
		opt.Ctl = &govern.Ctl{Ctx: ctx, Mem: mem}
		_, err := Group(kind, keys, vals, dom, opt)
		if !errors.Is(err, qerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want ErrCancelled wrapping context.Canceled", kind, err)
		}
		if polls := ctx.polls.Load(); polls != at {
			t.Fatalf("%s: kernel polled %d times, want it to stop at poll %d", kind, polls, at)
		}
		if mem.Used() != 0 {
			t.Fatalf("%s: %d bytes still reserved after cancellation", kind, mem.Used())
		}
	}
}

// TestGroupBudgetFollowsStateWidth: the kernels charge the state they
// allocate, so a budget between the footprint of the 16-byte state and that
// of the 32-byte one admits COUNT + SUM and rejects MIN + MAX — with the
// typed budget error and nothing left reserved. (SOG is left out: its
// footprint is its sorted copies, the same for both.)
func TestGroupBudgetFollowsStateWidth(t *testing.T) {
	keys, vals, dom := groupGovernInput()
	narrow := []aggArg{{vals: argVals{i64: vals}, need: needSum}}
	wide := []aggArg{{vals: argVals{i64: vals}, need: needMin | needMax}}
	for _, kind := range []GroupKind{HG, SPHG, OG, BSG} {
		for _, dop := range []int{1, 2} {
			peak := func(args []aggArg) int64 {
				mem := govern.NewBudget(0)
				opt := GroupOptions{Parallel: dop, Ctl: &govern.Ctl{Ctx: context.Background(), Mem: mem}}
				if _, err := groupArgs(kind, keys, args, dom, opt); err != nil {
					t.Fatalf("%s dop %d: %v", kind, dop, err)
				}
				return mem.Peak()
			}
			lo, hi := peak(narrow), peak(wide)
			if lo >= hi {
				t.Fatalf("%s dop %d: narrow state peaks at %d bytes, wide at %d", kind, dop, lo, hi)
			}
			mem := govern.NewBudget((lo + hi) / 2)
			opt := GroupOptions{Parallel: dop, Ctl: (&govern.Ctl{Ctx: context.Background(), Mem: mem}).For("Group(test)")}
			if _, err := groupArgs(kind, keys, narrow, dom, opt); err != nil {
				t.Fatalf("%s dop %d: COUNT + SUM under %d bytes: %v", kind, dop, mem.Limit(), err)
			}
			_, err := groupArgs(kind, keys, wide, dom, opt)
			if !errors.Is(err, qerr.ErrMemoryBudgetExceeded) || !strings.Contains(err.Error(), "Group(test)") {
				t.Fatalf("%s dop %d: MIN + MAX under %d bytes: err = %v, want ErrMemoryBudgetExceeded naming the operator", kind, dop, mem.Limit(), err)
			}
			if mem.Used() != 0 {
				t.Fatalf("%s dop %d: %d bytes still reserved", kind, dop, mem.Used())
			}
		}
	}
}

// TestSPHGOutOfDomainUnderBudget: a key outside the declared domain, met
// mid-input by the serial or a parallel load, is reported as such and leaves
// nothing reserved.
func TestSPHGOutOfDomainUnderBudget(t *testing.T) {
	keys, vals, dom := groupGovernInput()
	keys = append([]uint32(nil), keys...)
	keys[len(keys)-groupBlock/2] = 4000000
	for _, dop := range []int{1, 4} {
		mem := govern.NewBudget(0)
		opt := GroupOptions{Parallel: dop, Ctl: &govern.Ctl{Ctx: context.Background(), Mem: mem}}
		_, err := Group(SPHG, keys, vals, dom, opt)
		if err == nil || !strings.Contains(err.Error(), "SPHG key 4000000 outside declared domain") {
			t.Fatalf("dop %d: err = %v, want the out-of-domain key reported", dop, err)
		}
		if mem.Used() != 0 {
			t.Fatalf("dop %d: %d bytes still reserved", dop, mem.Used())
		}
	}
}

// TestCappedCapacityHint: a domain that describes a superset of the data —
// a spill partition, the output of a selective join — does not size the
// directory: 7 500 rows under a 30 000-key domain fit the budget a table for
// 7 500 groups fits, not the one a 64 k-slot directory needs.
func TestCappedCapacityHint(t *testing.T) {
	rel := datagen.GroupingRelation(3, 7500, 7500, datagen.Quadrant{})
	keys, vals := rel.MustColumn("key").Uint32s(), rel.MustColumn("val").Int64s()
	dom := domainOf(rel, "key")
	dom.Distinct = 30000
	for _, kind := range []GroupKind{HG, OG, BSG} {
		in := keys
		if kind == OG {
			in = make([]uint32, len(keys))
			for i := range in {
				in[i] = uint32(i) // all distinct: trivially grouped
			}
		}
		mem := govern.NewBudget(0)
		if _, err := Group(kind, in, vals, dom, GroupOptions{Ctl: &govern.Ctl{Ctx: context.Background(), Mem: mem}}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		// 24 B of directory entry and state per group, 4 B per bucket of a
		// directory of at most 2 x 8 192 buckets, output arrays apart.
		if limit := int64(7500*28 + 16384*4); mem.Peak() > limit {
			t.Fatalf("%s: peak reservation %d bytes for 7 500 rows, want at most %d", kind, mem.Peak(), limit)
		}
	}
}

// TestUnsignedArgumentIsNotCopied: SUM over a uint32 column reads the column
// through a block-sized window. Under a budget that admits the kernel's
// table but not 8 B/row of widened copy the statement runs, and what one
// GROUP BY allocates does not grow with its input.
func TestUnsignedArgumentIsNotCopied(t *testing.T) {
	const groups = 500
	build := func(rows int) *storage.Relation {
		keys, vals := make([]uint32, rows), make([]uint32, rows)
		for i := range keys {
			keys[i], vals[i] = uint32(i%groups), uint32(i)
		}
		return storage.MustNewRelation("t", storage.NewUint32("k", keys), storage.NewUint32("u", vals))
	}
	aggs := []expr.AggSpec{{Func: expr.AggSum, Col: "u"}}
	allocated := func(rel *storage.Relation, kind GroupKind, opt GroupOptions) uint64 {
		rel.MustColumn("k").Stats() // computed once per column, not part of a GROUP BY
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := GroupByRel(rel, "k", aggs, kind, opt, props.Domain{})
		runtime.ReadMemStats(&after)
		if err != nil || out.NumRows() != groups {
			t.Fatalf("%s over %d rows: %v", kind, rel.NumRows(), err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := build(50000), build(400000)
	for _, kind := range []GroupKind{HG, SPHG, BSG} {
		// Far below the 3.2 MB a widened copy of the large column takes.
		mem := govern.NewBudget(256 << 10)
		opt := GroupOptions{Ctl: &govern.Ctl{Ctx: context.Background(), Mem: mem}}
		a, b := allocated(small, kind, opt), allocated(large, kind, opt)
		if b > a+(64<<10) {
			t.Fatalf("%s: %d bytes allocated over 50 k rows, %d over 400 k: the kernel's allocation scales with its input", kind, a, b)
		}
		if mem.Used() != 0 {
			t.Fatalf("%s: %d bytes still reserved", kind, mem.Used())
		}
	}
}
