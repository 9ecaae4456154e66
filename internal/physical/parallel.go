package physical

import (
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/storage"
)

// Parallel kernel variants. Every one of them is DOP-invariant: its output is
// byte-identical to the serial kernel for any worker count, so the optimiser
// can treat the degree of parallelism as a pure cost dimension — plans that
// differ only in DOP produce the same relation. The orderings that make this
// hold are spelled out with each kernel (groupHashParallel below, probePairs
// for every probe-major join).

// minParallelChunk is the smallest per-worker share of the input worth
// forking goroutines for; below it the serial kernels win outright.
const minParallelChunk = 1 << 12

// groupHashParallel is HG with a parallel load: per-chunk chained tables are
// built concurrently over contiguous input chunks, then merged sequentially
// in chunk order into one table: each partial's keys are resolved in the
// merged table and its states folded into the groups they resolve to.
//
// Output-order proof: a chained table's iteration order is first-seen order.
// Merging the per-chunk first-seen sequences in chunk order yields keys
// ordered by (first chunk containing the key, first position within that
// chunk) — which is exactly the global first-seen order, because chunks are
// contiguous input ranges. Hence the merged table's ids equal the serial
// table's, and the result matches groupHash exactly.
func groupHashParallel(keys []uint32, args []aggArg, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	workers := opt.Parallel
	if max := len(keys) / minParallelChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		return groupHash(keys, args, dom, opt)
	}
	chunk := (len(keys) + workers - 1) / workers
	nChunks := (len(keys) + chunk - 1) / chunk
	type partial struct {
		tab *hashtable.GroupTable
		st  *groupStates
	}
	parts := make([]partial, nChunks)
	// Each worker charges its own partial table against the shared budget;
	// the reservations are kept until the merged table is built, because the
	// partials stay live that long.
	held := make([]int64, nChunks)
	defer func() {
		var total int64
		for _, h := range held {
			total += h
		}
		opt.Ctl.Release(total)
	}()
	err := forChunks(len(keys), chunk, func(c, lo, hi int) error {
		rv := resv{ctl: opt.Ctl}
		p := partial{hashtable.NewGroupTable(opt.Hash, 0), newGroupStates(args, 0, 0, opt.Ctl.Arena())}
		if err := loadGroups(p.tab, p.st, keys, lo, hi, &rv); err != nil {
			rv.release()
			return err
		}
		parts[c], held[c] = p, rv.held
		return nil
	})
	if err != nil {
		return nil, err
	}

	hint := capHint(dom, len(keys))
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	tab := hashtable.NewGroupTable(opt.Hash, hint)
	st := newGroupStates(args, 0, hint, opt.Ctl.Arena())
	ids := storage.GetInt32s(groupBlock)[:groupBlock]
	defer storage.PutInt32s(ids)
	for _, p := range parts {
		pkeys := p.tab.Groups()
		for lo := 0; lo < len(pkeys); lo += groupBlock {
			if err := opt.Ctl.Err(); err != nil {
				return nil, err
			}
			if err := rv.charge(tab.MemBytes() + st.memBytes()); err != nil {
				return nil, err
			}
			blk := pkeys[lo:min(lo+groupBlock, len(pkeys))]
			tab.Resolve(blk, ids)
			st.merge(ids[:len(blk)], p.st, lo, tab.Len())
		}
	}
	if err := rv.charge(tab.MemBytes() + st.memBytes()); err != nil {
		return nil, err
	}
	return hashResult(tab, st), nil
}
