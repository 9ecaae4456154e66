package physical

import (
	"sync"

	"dqo/internal/faultinject"
	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/props"
)

// Parallel kernel variants. Every one of them is DOP-invariant: its output is
// byte-identical to the serial kernel for any worker count, so the optimiser
// can treat the degree of parallelism as a pure cost dimension — plans that
// differ only in DOP produce the same relation. The orderings that make this
// hold are spelled out per kernel below.

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
		p := partial{hashtable.NewGroupTable(opt.Hash, 0), newGroupStates(args, 0, 0)}
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
	st := newGroupStates(args, 0, hint)
	ids := make([]int32, groupBlock)
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

// joinPartBits sizes the radix partition directory: a few partitions per
// worker for balance, capped so the per-partition bookkeeping stays small.
func joinPartBits(workers int) uint {
	bits := uint(0)
	for 1<<bits < workers {
		bits++
	}
	bits += 2
	if bits > 8 {
		bits = 8
	}
	return bits
}

// joinPartition maps a key to its partition. Deliberately independent of the
// plan's hash-function choice (opt.Hash): partitioning by the same function
// that buckets within a partition would make every partition-local table
// degenerate (all keys sharing high bits), and an Identity hash choice would
// skew partitions. A fixed Fibonacci multiply taking the high bits avoids
// both, and — being internal to the kernel — never changes the output.
func joinPartition(key uint32, bits uint) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> (64 - bits))
}

// joinHashParallel is HJ with radix-partitioned parallel build and parallel
// probe, equal to the serial build-and-probe's output for any worker count
// (joinSides sends inputs under minParallelChunk rows down the serial path).
//
// Output-order proof: the scatter is partition-preserving — per-chunk
// histograms plus prefix sums give every input chunk a disjoint write window
// per partition, so within each partition, rows keep their original relative
// order. All rows with a given key land in one partition; the partition's
// Multi is built in ascending partition-local (= original) order, so Fill
// yields matches in descending original row order — the same order the
// serial table yields. The probe side is split into contiguous chunks that
// fill disjoint windows of the pair arrays in chunk order, keeping j
// ascending globally. Pairs therefore appear in (j ascending, i descending
// per key) order — the serial order — and the output is independent of the
// partition count.
func joinHashParallel(left, right []uint32, opt JoinOptions, sides pairSides) (*JoinResult, error) {
	workers := opt.Parallel
	bits := joinPartBits(workers)
	nPart := 1 << bits

	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	var box govern.PanicBox

	// Scatter the build side into partitions, preserving order per partition.
	n := len(left)
	chunk := (n + workers - 1) / workers
	nChunks := (n + chunk - 1) / chunk
	hist := make([][]int32, nChunks)
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			defer box.Guard()
			counts := make([]int32, nPart)
			for _, k := range left[lo:hi] {
				counts[joinPartition(k, bits)]++
			}
			hist[c] = counts
		}(c, lo, hi)
	}
	wg.Wait()
	if err := box.Err(); err != nil {
		return nil, err
	}
	if err := opt.Ctl.Err(); err != nil {
		return nil, err
	}

	partStart := make([]int32, nPart+1)
	offs := make([][]int32, nChunks)
	for c := range offs {
		offs[c] = make([]int32, nPart)
	}
	var run int32
	for p := 0; p < nPart; p++ {
		partStart[p] = run
		for c := 0; c < nChunks; c++ {
			offs[c][p] = run
			run += hist[c][p]
		}
	}
	partStart[nPart] = run

	// The partition buffers are the scatter's working set: 8 bytes per
	// build-side row.
	if err := rv.add(int64(n) * 8); err != nil {
		return nil, err
	}
	partKeys := make([]uint32, n)
	partIdx := make([]int32, n)
	for c := 0; c < nChunks; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			defer box.Guard()
			if err := faultinject.Fire(faultinject.PointPhysicalScatter); err != nil {
				panic(err)
			}
			off := offs[c]
			for i := lo; i < hi; i++ {
				p := joinPartition(left[i], bits)
				o := off[p]
				partKeys[o] = left[i]
				partIdx[o] = int32(i)
				off[p] = o + 1
			}
		}(c, lo, hi)
	}
	wg.Wait()
	if err := box.Err(); err != nil {
		return nil, err
	}
	if err := opt.Ctl.Err(); err != nil {
		return nil, err
	}

	// Build one Multi per partition over the partition's keys and original
	// row ids; worker w strides partitions w, w+W, … The tables are reserved
	// together before any is built and stay reserved until the probe is done.
	if err := faultinject.Fire(faultinject.PointPhysicalBuild); err != nil {
		return nil, err
	}
	var tableBytes int64
	for p := 0; p < nPart; p++ {
		tableBytes += hashtable.MultiBytes(int(partStart[p+1] - partStart[p]))
	}
	if err := rv.add(tableBytes); err != nil {
		return nil, err
	}
	idx := partitionedMulti{bits: bits, tables: make([]*hashtable.Multi, nPart)}
	defer idx.release()
	err := forChunks(workers, 1, func(w, _, _ int) error {
		for p := w; p < nPart; p += workers {
			lo, hi := partStart[p], partStart[p+1]
			m, err := hashtable.BuildMulti(opt.Hash, partKeys[lo:hi], partIdx[lo:hi], opt.Ctl.Err)
			if err != nil {
				return err
			}
			idx.tables[p] = m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return probePairs(perKey{idx}, right, workers, &rv, sides)
}

// partitionedMulti is the parallel HJ's build side: one Multi per radix
// partition, each holding its rows' original ids.
type partitionedMulti struct {
	bits   uint
	tables []*hashtable.Multi
}

// release hands the partitions' tables back to the scratch pool.
func (p partitionedMulti) release() {
	for _, m := range p.tables {
		if m != nil {
			m.Release()
		}
	}
}

func (p partitionedMulti) Count(key uint32) int {
	return p.tables[joinPartition(key, p.bits)].Count(key)
}

func (p partitionedMulti) Fill(key uint32, dst []int32) int {
	return p.tables[joinPartition(key, p.bits)].Fill(key, dst)
}
