// Package physical implements the executable operators: the five grouping
// and five join algorithm families of the paper's experiments (Section 4),
// plus scans, filters, projections, sorts, and the Figure 2 push-based
// producer-bundle engine.
//
// Each algorithm family exposes its inner design decisions (hash function,
// sort algorithm, loop parallelism) as options — these are the "molecules"
// the DQO optimiser chooses; shallow optimisers treat the whole family as one
// opaque physical operator.
package physical

import (
	"fmt"
	"math"
	"math/bits"

	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// GroupKind identifies one of the paper's five grouping implementations
// (Section 4.1).
type GroupKind uint8

// Grouping algorithm kinds.
const (
	// HG: hash-based grouping. Every input element is inserted individually
	// into a hash table (the paper uses std::unordered_map + Murmur3
	// finaliser; here the table is chained and the hash function an option).
	HG GroupKind = iota
	// SPHG: static perfect hash-based grouping. The grouping key, offset by
	// the domain minimum, indexes directly into the group array. Requires a
	// dense key domain.
	SPHG
	// OG: order-based grouping. Requires the input to be grouped
	// (partitioned) by the key: equal keys adjacent. One sequential pass.
	OG
	// SOG: sort & order-based grouping. Sorts the input, then applies OG.
	SOG
	// BSG: binary-search-based grouping. Groups live in a sorted array;
	// lookups are binary searches, new groups are insertion-shifted in.
	BSG
)

// String returns the paper's abbreviation.
func (k GroupKind) String() string {
	switch k {
	case HG:
		return "HG"
	case SPHG:
		return "SPHG"
	case OG:
		return "OG"
	case SOG:
		return "SOG"
	case BSG:
		return "BSG"
	default:
		return fmt.Sprintf("GroupKind(%d)", uint8(k))
	}
}

// GroupKinds lists all grouping algorithms.
func GroupKinds() []GroupKind { return []GroupKind{HG, SPHG, OG, SOG, BSG} }

// Requirements returns the input properties the algorithm needs on the
// grouping key column named col.
func (k GroupKind) Requirements(col string) []props.Requirement {
	switch k {
	case SPHG:
		return []props.Requirement{{Kind: props.ReqDense, Column: col}}
	case OG:
		return []props.Requirement{{Kind: props.ReqGrouped, Column: col}}
	default:
		return nil
	}
}

// Admits reports whether an input with these properties meets
// Requirements(col), without building the list.
func (k GroupKind) Admits(in props.Set, col props.Col) bool {
	switch k {
	case SPHG:
		return in.DenseOn(col)
	case OG:
		return in.GroupedOn(col)
	default:
		return true
	}
}

// GroupOptions selects the sub-operator ("molecule") choices inside a
// grouping algorithm. The zero value reproduces the paper's setup: chained
// hash table, Murmur3 finaliser, radix sort, serial load loop.
type GroupOptions struct {
	Hash     hashtable.Func // HG: hash function
	Sort     sortx.Kind     // SOG: sort algorithm
	Parallel int            // HG/SPHG load loop + SOG sort goroutines; <=1 is serial
	Ctl      *govern.Ctl    // cancellation + memory budget; nil is ungoverned
}

// maxSPHWidth bounds the group-array width SPHG will allocate (16 Mi slots
// of 16 B narrow state = 256 MiB per argument column); wider domains must
// use another algorithm.
const maxSPHWidth = 1 << 24

// GroupResult is the output of a grouping kernel: one entry per distinct
// key, with the aggregates that were asked for as one array each. Sorted
// reports whether Keys is ascending (a DQO plan property of the output, not
// an implementation detail: SPHG/SOG/BSG produce sorted output, HG does not,
// OG only if its input was sorted).
type GroupResult struct {
	Keys   []uint32
	Counts []int64   // rows per group
	Aggs   []ColAggs // per aggregate argument column, in argument order
	Sorted bool
}

// ColAggs holds one argument column's aggregates per group; an aggregate
// nobody asked for is nil.
type ColAggs struct{ Sum, Min, Max []int64 }

// newGroupResult returns a result over keys whose arrays — len(keys) long,
// with room for cap(keys), drawn from s and dirty — are those args ask for.
func newGroupResult(keys []uint32, args []aggArg, s *storage.Scratch) *GroupResult {
	array := func() []int64 { return s.Int64s(cap(keys))[:len(keys)] }
	res := &GroupResult{Keys: keys, Counts: array()}
	if len(args) > 0 {
		res.Aggs = make([]ColAggs, len(args))
	}
	for i, a := range args {
		if a.need&needSum != 0 {
			res.Aggs[i].Sum = array()
		}
		if a.need&needMin != 0 {
			res.Aggs[i].Min = array()
		}
		if a.need&needMax != 0 {
			res.Aggs[i].Max = array()
		}
	}
	return res
}

// Group aggregates vals by keys using the chosen algorithm, computing COUNT
// and SUM on the fly like the paper's kernels (Section 4.1): Counts, and
// Aggs[0].Sum unless vals is nil (COUNT-only aggregation). dom is what is
// known about the key domain (SPHG requires a known dense domain; the others
// use Distinct, capped at the row count, as a capacity hint). The returned
// error reports unmet requirements, never data errors.
func Group(kind GroupKind, keys []uint32, vals []int64, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	var args []aggArg
	if vals != nil {
		args = []aggArg{{vals: argVals{i64: vals}, need: needSum}}
	}
	return groupArgs(kind, keys, args, dom, opt)
}

// groupArgs is Group over any number of argument columns, each with the
// aggregates needed of it: the keys are resolved once and every column's
// state is updated from the same block of group ids.
func groupArgs(kind GroupKind, keys []uint32, args []aggArg, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	switch kind {
	case HG:
		if opt.Parallel > 1 {
			return groupHashParallel(keys, args, dom, opt)
		}
		return groupHash(keys, args, dom, opt)
	case SPHG:
		return groupSPH(keys, args, dom, opt)
	case OG:
		return groupOrder(keys, args, dom, opt.Ctl)
	case SOG:
		return groupSortOrder(keys, args, dom, opt)
	case BSG:
		return groupBinarySearch(keys, args, dom, opt.Ctl)
	default:
		return nil, fmt.Errorf("physical: unknown grouping kind %d", uint8(kind))
	}
}

// capHint is the number of groups a kernel sizes its directory and states
// for: the domain's distinct count, which may describe a superset of the
// data (a spill partition, the output of a selective join), capped at the
// number of input rows; 0 when nothing is known.
func capHint(dom props.Domain, rows int) int {
	if !dom.Known {
		return 0
	}
	return int(min(dom.Distinct, int64(rows)))
}

// resolver is the part of a grouping kernel that differs between HG and
// BSG: it gives every distinct key a dense id, in first-seen order.
type resolver interface {
	Resolve(keys []uint32, ids []int32)
	Len() int
	MemBytes() int64
}

// loadGroups folds rows [begin, end) into st one block at a time: resolve
// the block's group ids, then update every argument's state from them.
// Between blocks it polls cancellation and charges the directory's and the
// states' growth to rv, and charges once more at the end.
func loadGroups(dir resolver, st *groupStates, keys []uint32, begin, end int, rv *resv) error {
	ids := storage.GetInt32s(groupBlock)[:groupBlock]
	defer storage.PutInt32s(ids)
	for lo := begin; lo < end; lo += groupBlock {
		if err := rv.ctl.Err(); err != nil {
			return err
		}
		if err := rv.charge(dir.MemBytes() + st.memBytes()); err != nil {
			return err
		}
		blk := keys[lo:min(lo+groupBlock, end)]
		dir.Resolve(blk, ids)
		st.add(ids[:len(blk)], lo, dir.Len())
	}
	return rv.charge(dir.MemBytes() + st.memBytes())
}

// groupHash is HG: one hash table lookup per input element, with the hash
// function resolved once per block of rows. The table's and the states'
// footprint is charged against the budget as they grow; cancellation and
// budget violations abort mid-build.
func groupHash(keys []uint32, args []aggArg, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	hint := capHint(dom, len(keys))
	tab := hashtable.NewGroupTable(opt.Hash, hint)
	st := newGroupStates(args, 0, hint, opt.Ctl.Arena())
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	if err := loadGroups(tab, st, keys, 0, len(keys), &rv); err != nil {
		return nil, err
	}
	return hashResult(tab, st), nil
}

// hashResult is HG's output: the groups in the table's id order, which is
// first-seen order. Per the paper, a consumer must assume a hash table's
// output is unordered.
func hashResult(tab *hashtable.GroupTable, st *groupStates) *GroupResult {
	gkeys := tab.Groups()
	return st.result(gkeys, sortx.IsSortedUint32(gkeys))
}

// groupSPH is SPHG: the key (offset by the domain minimum) indexes an array
// of running aggregates — a minimal static perfect hash when the domain is
// dense. With opt.Parallel > 1 the load loop is split across goroutines with
// per-worker arrays merged at the end (the Figure 3(e) "parallel loop").
func groupSPH(keys []uint32, args []aggArg, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	lo64, hi64, ok := dom.DenseDomain()
	if !ok {
		return nil, fmt.Errorf("physical: SPHG requires a known dense key domain, have %+v", dom)
	}
	width := hi64 - lo64 + 1
	if width > maxSPHWidth {
		return nil, fmt.Errorf("physical: SPHG domain width %d exceeds limit %d", width, maxSPHWidth)
	}
	sph := sphDomain{lo: uint32(lo64), width: int(width)}

	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	workers := 1
	if opt.Parallel > 1 && len(keys) >= opt.Parallel {
		workers = opt.Parallel // per-worker arrays: workers copies of the directory
	}
	if err := rv.add(int64(workers) * int64(sph.width) * stateBytes(args)); err != nil {
		return nil, err
	}
	var st *groupStates
	if workers > 1 {
		var err error
		if st, err = sphParallelLoad(keys, args, sph, workers, opt.Ctl); err != nil {
			return nil, err
		}
	} else {
		st = newGroupStates(args, sph.width, 0, opt.Ctl.Arena())
		if err := sph.load(st, keys, 0, len(keys), opt.Ctl); err != nil {
			return nil, err
		}
	}

	// The non-empty slots, in slot order, are the output.
	return st.result(st.compact(sph.lo), true), nil
}

// sphDomain is SPHG's static perfect hash: key lo is slot 0.
type sphDomain struct {
	lo    uint32
	width int
}

// load folds rows [begin, end) into the slot states st block by block,
// polling ctl between blocks. A key outside the domain is an error.
func (d sphDomain) load(st *groupStates, keys []uint32, begin, end int, ctl *govern.Ctl) error {
	ids := storage.GetInt32s(groupBlock)[:groupBlock]
	defer storage.PutInt32s(ids)
	for lo := begin; lo < end; lo += groupBlock {
		if err := ctl.Err(); err != nil {
			return err
		}
		blk := keys[lo:min(lo+groupBlock, end)]
		for i, k := range blk {
			slot := k - d.lo
			if uint64(slot) >= uint64(d.width) { // also catches k < lo (wraparound)
				return fmt.Errorf("physical: SPHG key %d outside declared domain [%d,%d]", k, d.lo, uint64(d.lo)+uint64(d.width)-1)
			}
			ids[i] = int32(slot)
		}
		st.add(ids[:len(blk)], lo, d.width)
	}
	return nil
}

// sphParallelLoad builds per-worker SPH arrays over input chunks and merges
// them into the first. Aggregates are distributive, so the merge is exact.
// Out-of-domain keys are reported as an error after all workers finish.
func sphParallelLoad(keys []uint32, args []aggArg, d sphDomain, workers int, ctl *govern.Ctl) (*groupStates, error) {
	chunk := (len(keys) + workers - 1) / workers
	partial := make([]*groupStates, (len(keys)+chunk-1)/chunk)
	err := forChunks(len(keys), chunk, func(c, begin, end int) error {
		partial[c] = newGroupStates(args, d.width, 0, ctl.Arena())
		return d.load(partial[c], keys, begin, end, ctl)
	})
	if err != nil {
		return nil, err
	}
	slots := storage.GetInt32s(d.width)[:d.width]
	defer storage.PutInt32s(slots)
	for i := range slots {
		slots[i] = int32(i)
	}
	for _, p := range partial[1:] {
		partial[0].merge(slots, p, 0, d.width)
	}
	return partial[0], nil
}

// groupOrder is OG: a single sequential pass over grouped input, run-wise.
// Each run of equal keys becomes one group, appended at the next free slot,
// and its aggregates are folded from the run's window of values straight
// into the output arrays — there is no per-row state. If the input violates
// the grouped requirement, a key starts more than one run; that is detected
// (cheaply, via the known distinct count when available, otherwise by
// counting the distinct run keys of unsorted output exactly) and reported.
func groupOrder(keys []uint32, args []aggArg, dom props.Domain, ctl *govern.Ctl) (*GroupResult, error) {
	// Every run of equal keys is one group: count them first, so that the
	// output arrays are drawn at their final size, since they are often the
	// query's result and stay with it.
	groups := min(len(keys), 1)
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			groups++
		}
	}
	s := ctl.Arena()
	res := newGroupResult(s.Uint32s(groups)[:0], args, s)
	perGroup := int64(4 + 8)
	for _, a := range args {
		perGroup += 8 * int64(bits.OnesCount8(uint8(a.need)))
	}
	rv := resv{ctl: ctl}
	defer rv.release()

	buf := widenBuf(args, s)
	ends := storage.GetInt32s(groupBlock)[:groupBlock] // where each run of the block ends, block-relative
	defer storage.PutInt32s(ends)
	for lo := 0; lo < len(keys); lo += groupBlock {
		if err := ctl.Err(); err != nil {
			return nil, err
		}
		if err := rv.charge(int64(cap(res.Keys)) * perGroup); err != nil {
			return nil, err
		}
		blk := keys[lo:min(lo+groupBlock, len(keys))]
		// The block's first run continues the last group when the key is
		// the same; every other run starts a group.
		first := len(res.Keys)
		if first > 0 && res.Keys[first-1] == blk[0] {
			first--
		} else {
			res.Keys = append(res.Keys, blk[0])
		}
		runs := 0
		for i := 1; i < len(blk); i++ {
			if blk[i] != blk[i-1] {
				ends[runs] = int32(i)
				runs++
				res.Keys = append(res.Keys, blk[i])
			}
		}
		ends[runs] = int32(len(blk))
		runs++

		g := len(res.Keys)
		res.Counts = extendWith(res.Counts, g, 0)
		countRuns(res.Counts[first:], ends[:runs])
		for i, a := range args {
			out, vals := &res.Aggs[i], a.vals.window(lo, lo+len(blk), buf)
			if out.Sum != nil {
				out.Sum = extendWith(out.Sum, g, 0)
				sumRuns(out.Sum[first:], vals, ends[:runs])
			}
			if out.Min != nil {
				out.Min = extendWith(out.Min, g, math.MaxInt64)
				minRuns(out.Min[first:], vals, ends[:runs])
			}
			if out.Max != nil {
				out.Max = extendWith(out.Max, g, math.MinInt64)
				maxRuns(out.Max[first:], vals, ends[:runs])
			}
		}
	}
	res.Sorted = sortx.IsSortedUint32(res.Keys)

	if dom.Known && len(res.Keys) > int(dom.Distinct) {
		return nil, fmt.Errorf("physical: OG input not grouped: %d runs for %d distinct keys", len(res.Keys), dom.Distinct)
	}
	if !dom.Known && !res.Sorted && storage.Uint32Stats(res.Keys).Distinct < len(res.Keys) {
		return nil, fmt.Errorf("physical: OG input not grouped: duplicate runs detected")
	}
	return res, nil
}

// extendWith grows xs to n elements, the new ones holding fill.
func extendWith(xs []int64, n int, fill int64) []int64 {
	for len(xs) < n {
		xs = append(xs, fill)
	}
	return xs
}

// countRuns adds the length of run r, which ends at ends[r] where run r+1
// starts, to dst[r].
func countRuns(dst []int64, ends []int32) {
	var start int32
	for r, end := range ends {
		dst[r] += int64(end - start)
		start = end
	}
}

// sumRuns adds the sum of vals over run r to dst[r].
func sumRuns(dst, vals []int64, ends []int32) {
	var start int32
	for r, end := range ends {
		var s int64
		for _, v := range vals[start:end] {
			s += v
		}
		dst[r] += s
		start = end
	}
}

// minRuns lowers dst[r] to the minimum of vals over run r.
func minRuns(dst, vals []int64, ends []int32) {
	var start int32
	for r, end := range ends {
		m := dst[r]
		for _, v := range vals[start:end] {
			m = min(m, v)
		}
		dst[r] = m
		start = end
	}
}

// maxRuns raises dst[r] to the maximum of vals over run r.
func maxRuns(dst, vals []int64, ends []int32) {
	var start int32
	for r, end := range ends {
		m := dst[r]
		for _, v := range vals[start:end] {
			m = max(m, v)
		}
		dst[r] = m
		start = end
	}
}

// groupSortOrder is SOG: sort copies of the key and argument columns by key,
// then OG over the copies. Each argument column is sorted along with its own
// copy of the keys; the sorts are stable, so the columns stay aligned. With
// opt.Parallel > 1 a sort runs as per-worker runs + pairwise merges, which
// produces the identical (stable) ordering, so the result is DOP-invariant.
func groupSortOrder(keys []uint32, args []aggArg, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	// The sorted key copy and every argument column's int64 copy, doubled
	// when the parallel merge passes need their swap buffers.
	perRow := int64(4 + 8*len(args))
	if opt.Parallel > 1 {
		perRow *= 2
	}
	if err := rv.add(perRow * int64(len(keys))); err != nil {
		return nil, err
	}
	stop := opt.Ctl.Err
	s := opt.Ctl.Arena()
	sk := s.Uint32s(len(keys))
	copy(sk, keys)
	if len(args) == 0 {
		if opt.Parallel > 1 {
			if err := sortx.ParallelSortUint32Ctl(opt.Sort, sk, opt.Parallel, stop); err != nil {
				return nil, err
			}
		} else {
			if err := stop(); err != nil {
				return nil, err
			}
			sortx.SortUint32(opt.Sort, sk)
		}
	}
	sorted := make([]aggArg, len(args))
	for i, a := range args {
		if i > 0 {
			copy(sk, keys)
		}
		sv := a.vals.clone(s)
		if opt.Parallel > 1 {
			if err := sortx.ParallelSortPairsUint32Int64Ctl(opt.Sort, sk, sv, opt.Parallel, stop); err != nil {
				return nil, err
			}
		} else {
			if err := stop(); err != nil {
				return nil, err
			}
			sortx.SortPairsUint32Int64(opt.Sort, sk, sv)
		}
		sorted[i] = aggArg{vals: argVals{i64: sv}, need: a.need}
	}
	res, err := groupOrder(sk, sorted, dom, opt.Ctl)
	if err != nil {
		return nil, err
	}
	res.Sorted = true
	return res, nil
}

// sortedGroups is BSG's group directory: the distinct keys in ascending
// order, each with the id it was given when first seen.
type sortedGroups struct {
	keys []uint32
	ids  []int32
}

func (d *sortedGroups) Len() int { return len(d.keys) }

func (d *sortedGroups) MemBytes() int64 { return int64(cap(d.keys))*4 + int64(cap(d.ids))*4 }

func (d *sortedGroups) Resolve(keys []uint32, ids []int32) {
	for i, k := range keys {
		pos, found := searchUint32(d.keys, k)
		if !found {
			d.keys = append(d.keys, 0)
			d.ids = append(d.ids, 0)
			copy(d.keys[pos+1:], d.keys[pos:])
			copy(d.ids[pos+1:], d.ids[pos:])
			d.keys[pos], d.ids[pos] = k, int32(len(d.keys)-1)
		}
		ids[i] = d.ids[pos]
	}
}

// groupBinarySearch is BSG: the group directory is a sorted array probed by
// binary search; unseen keys are insertion-shifted into place. Lookup is
// O(log g); building pays O(g) per new key, amortised away for small g —
// which is exactly the regime where the paper finds BSG competitive. The
// states stay where their group was first seen (the shift moves 8 bytes per
// group, not the aggregates) and are read out through the directory.
func groupBinarySearch(keys []uint32, args []aggArg, dom props.Domain, ctl *govern.Ctl) (*GroupResult, error) {
	hint := capHint(dom, len(keys))
	s := ctl.Arena()
	dir := &sortedGroups{keys: s.Uint32s(hint)[:0], ids: make([]int32, 0, hint)}
	st := newGroupStates(args, 0, hint, s)
	rv := resv{ctl: ctl}
	defer rv.release()
	if err := loadGroups(dir, st, keys, 0, len(keys), &rv); err != nil {
		return nil, err
	}
	st.reorder(dir.ids)
	return st.result(dir.keys, true), nil
}

// searchUint32 returns the insertion position of k in the sorted slice xs
// and whether k is present.
func searchUint32(xs []uint32, k uint32) (int, bool) {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(xs) && xs[lo] == k
}

// SortsOutput reports whether the algorithm's output over an input with
// these properties is sorted on the key column col; otherwise it is only
// grouped on it (one row per key). SPHG, SOG and BSG always sort, HG never
// does, and OG keeps its input's run order: sorted on sorted input, first-run
// order on merely grouped input. OutputProps reads nothing else of the kind,
// so kinds that agree here derive equal output properties from one input.
func (k GroupKind) SortsOutput(in props.Set, col props.Col) bool {
	switch k {
	case SPHG, SOG, BSG:
		return true
	case OG:
		return in.SortedOn(col)
	default:
		return false
	}
}

// OutputProps returns the property set of the grouping output given the
// input property set (for the key column named col): the order SortsOutput
// states, and the key domain of the result.
func (k GroupKind) OutputProps(in props.Set, col props.Col) props.Set {
	// Grouping preserves the key domain exactly.
	out := in.Project(props.ColsOf(col)).DropOrder()
	if k.SortsOutput(in, col) {
		out.Sorted = props.ColsOf(col)
	} else {
		out.Grouped = props.ColsOf(col)
	}
	return out
}
