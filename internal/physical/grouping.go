// Package physical implements the executable operators: the five grouping
// and five join algorithm families of the paper's experiments (Section 4),
// plus scans, filters, projections, sorts, and the Figure 2 push-based
// producer-bundle engine.
//
// Each algorithm family exposes its inner design decisions (hash table
// scheme, hash function, sort algorithm, loop parallelism) as options — these
// are the "molecules" the DQO optimiser chooses; shallow optimisers treat the
// whole family as one opaque physical operator.
package physical

import (
	"fmt"
	"sync"

	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/sortx"
)

// GroupKind identifies one of the paper's five grouping implementations
// (Section 4.1).
type GroupKind uint8

// Grouping algorithm kinds.
const (
	// HG: hash-based grouping. Every input element is inserted individually
	// into a hash table (the paper uses std::unordered_map + Murmur3
	// finaliser; the table scheme and hash function are options here).
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
	numGroupKinds
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

// GroupOptions selects the sub-operator ("molecule") choices inside a
// grouping algorithm. The zero value reproduces the paper's setup: chained
// hash table, Murmur3 finaliser, radix sort, serial load loop.
type GroupOptions struct {
	Scheme   hashtable.Scheme // HG: collision handling
	Hash     hashtable.Func   // HG: hash function
	Sort     sortx.Kind       // SOG: sort algorithm
	Parallel int              // HG/SPHG load loop + SOG sort goroutines; <=1 is serial
	Ctl      *govern.Ctl      // cancellation + memory budget; nil is ungoverned
}

// maxSPHWidth bounds the group-array width SPHG will allocate (16 Mi groups
// * 32 B state = 512 MiB); wider domains must use another algorithm.
const maxSPHWidth = 1 << 24

// GroupResult is the output of a grouping kernel: one entry per distinct
// key, with the running aggregate state. Sorted reports whether Keys is
// ascending (a DQO plan property of the output, not an implementation
// detail: SPHG/SOG/BSG produce sorted output, HG does not, OG only if its
// input was sorted).
type GroupResult struct {
	Keys   []uint32
	States []hashtable.AggState
	Sorted bool
}

// Group aggregates vals by keys using the chosen algorithm. vals may be nil
// for COUNT-only aggregation. dom is what is known about the key domain
// (SPHG requires a known dense domain; HG and BSG use Distinct as a capacity
// hint). The returned error reports unmet requirements, never data errors.
func Group(kind GroupKind, keys []uint32, vals []int64, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	switch kind {
	case HG:
		if opt.Parallel > 1 {
			return groupHashParallel(keys, vals, dom, opt)
		}
		return groupHash(keys, vals, dom, opt)
	case SPHG:
		return groupSPH(keys, vals, dom, opt)
	case OG:
		return groupOrder(keys, vals, dom, opt.Ctl)
	case SOG:
		return groupSortOrder(keys, vals, dom, opt)
	case BSG:
		return groupBinarySearch(keys, vals, dom, opt.Ctl)
	default:
		return nil, fmt.Errorf("physical: unknown grouping kind %d", uint8(kind))
	}
}

func valAt(vals []int64, i int) int64 {
	if vals == nil {
		return 0
	}
	return vals[i]
}

// valsWindow is vals[lo:hi], or nil for COUNT-only aggregation (nil vals).
func valsWindow(vals []int64, lo, hi int) []int64 {
	if vals == nil {
		return nil
	}
	return vals[lo:hi]
}

// groupHash is HG: one hash table insert per input element, with the table
// scheme and hash function resolved once per block of rows (AddBatch). The
// table's footprint is charged against the budget as it grows; cancellation
// and budget violations abort mid-build.
func groupHash(keys []uint32, vals []int64, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	hint := 0
	if dom.Known {
		hint = int(dom.Distinct)
	}
	tab := hashtable.NewAgg(opt.Scheme, opt.Hash, hint)
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	if err := rv.charge(tab.MemBytes()); err != nil {
		return nil, err
	}
	if err := loadAgg(tab, keys, vals, &rv); err != nil {
		return nil, err
	}
	res := &GroupResult{
		Keys:   make([]uint32, 0, tab.Len()),
		States: make([]hashtable.AggState, 0, tab.Len()),
	}
	tab.ForEach(func(k uint32, st hashtable.AggState) {
		res.Keys = append(res.Keys, k)
		res.States = append(res.States, st)
	})
	// A hash table's output order depends on the hash function; per the
	// paper, a consumer must assume it is unordered.
	res.Sorted = sortx.IsSortedUint32(res.Keys)
	return res, nil
}

// loadAgg folds keys/vals (nil vals: COUNT-only) into tab one checkEvery
// block at a time, polling cancellation and charging the table's growth to
// rv between blocks and once more at the end.
func loadAgg(tab hashtable.AggTable, keys []uint32, vals []int64, rv *resv) error {
	for lo := 0; lo < len(keys); lo += checkEvery {
		if err := rv.ctl.Err(); err != nil {
			return err
		}
		if err := rv.charge(tab.MemBytes()); err != nil {
			return err
		}
		hi := min(lo+checkEvery, len(keys))
		tab.AddBatch(keys[lo:hi], valsWindow(vals, lo, hi))
	}
	return rv.charge(tab.MemBytes())
}

// groupSPH is SPHG: the key (offset by the domain minimum) indexes an array
// of running aggregates — a minimal static perfect hash when the domain is
// dense. With opt.Parallel > 1 the load loop is split across goroutines with
// per-worker arrays merged at the end (the Figure 3(e) "parallel loop").
func groupSPH(keys []uint32, vals []int64, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	lo64, hi64, ok := dom.DenseDomain()
	if !ok {
		return nil, fmt.Errorf("physical: SPHG requires a known dense key domain, have %+v", dom)
	}
	width := hi64 - lo64 + 1
	if width > maxSPHWidth {
		return nil, fmt.Errorf("physical: SPHG domain width %d exceeds limit %d", width, maxSPHWidth)
	}
	lo := uint32(lo64)
	w := int(width)

	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	var states []hashtable.AggState
	if opt.Parallel > 1 && len(keys) >= opt.Parallel {
		// Per-worker arrays: the footprint is workers copies of the directory.
		if err := rv.add(int64(opt.Parallel) * int64(w) * aggStateBytes); err != nil {
			return nil, err
		}
		var perr error
		states, perr = sphParallelLoad(keys, vals, lo, w, opt.Parallel, opt.Ctl)
		if perr != nil {
			return nil, perr
		}
	} else {
		if err := rv.add(int64(w) * aggStateBytes); err != nil {
			return nil, err
		}
		states = make([]hashtable.AggState, w)
		if vals == nil {
			for i, k := range keys {
				if i%checkEvery == 0 {
					if err := opt.Ctl.Err(); err != nil {
						return nil, err
					}
				}
				slot := k - lo
				if uint64(slot) >= width { // also catches k < lo (wraparound)
					return nil, fmt.Errorf("physical: SPHG key %d outside declared domain [%d,%d]", k, lo64, hi64)
				}
				st := &states[slot]
				if st.Count == 0 {
					st.Min, st.Max = 0, 0
				}
				st.Count++
			}
		} else {
			for i, k := range keys {
				if i%checkEvery == 0 {
					if err := opt.Ctl.Err(); err != nil {
						return nil, err
					}
				}
				slot := k - lo
				if uint64(slot) >= width {
					return nil, fmt.Errorf("physical: SPHG key %d outside declared domain [%d,%d]", k, lo64, hi64)
				}
				addState(&states[slot], vals[i])
			}
		}
	}

	res := &GroupResult{Sorted: true}
	res.Keys = make([]uint32, 0, w)
	res.States = make([]hashtable.AggState, 0, w)
	for i := range states {
		if states[i].Count > 0 {
			res.Keys = append(res.Keys, lo+uint32(i))
			res.States = append(res.States, states[i])
		}
	}
	return res, nil
}

// aggStateBytes is the budget charge per hashtable.AggState array slot.
const aggStateBytes = 32

// addState inlines hashtable.AggState maintenance for the array kernels.
func addState(st *hashtable.AggState, v int64) {
	if st.Count == 0 {
		st.Min, st.Max = v, v
	} else {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Count++
	st.Sum += v
}

// sphParallelLoad builds per-worker SPH arrays over input chunks and merges
// them. Aggregates are distributive, so the merge is exact. Out-of-domain
// keys are reported as an error after all workers finish.
func sphParallelLoad(keys []uint32, vals []int64, lo uint32, w, workers int, ctl *govern.Ctl) ([]hashtable.AggState, error) {
	partial := make([][]hashtable.AggState, workers)
	errs := make([]error, workers)
	var box govern.PanicBox
	var wg sync.WaitGroup
	chunk := (len(keys) + workers - 1) / workers
	for p := 0; p < workers; p++ {
		begin := p * chunk
		end := begin + chunk
		if end > len(keys) {
			end = len(keys)
		}
		if begin >= end {
			partial[p] = nil
			continue
		}
		wg.Add(1)
		go func(p, begin, end int) {
			defer wg.Done()
			defer box.Guard()
			states := make([]hashtable.AggState, w)
			for i := begin; i < end; i++ {
				if (i-begin)%checkEvery == 0 {
					if err := ctl.Err(); err != nil {
						errs[p] = err
						return
					}
				}
				slot := keys[i] - lo
				if uint64(slot) >= uint64(w) {
					errs[p] = fmt.Errorf("physical: SPHG key %d outside declared domain", keys[i])
					return
				}
				if vals == nil {
					st := &states[slot]
					if st.Count == 0 {
						st.Min, st.Max = 0, 0
					}
					st.Count++
				} else {
					addState(&states[slot], vals[i])
				}
			}
			partial[p] = states
		}(p, begin, end)
	}
	wg.Wait()
	if err := box.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]hashtable.AggState, w)
	for _, states := range partial {
		if states == nil {
			continue
		}
		for i := range states {
			if states[i].Count > 0 {
				out[i].Merge(states[i])
			}
		}
	}
	return out, nil
}

// groupOrder is OG: a single sequential pass over grouped input. Each run of
// equal keys becomes one group, appended at the next free slot. If the input
// violates the grouped requirement, a key starts more than one run; that is
// detected (cheaply, via the known distinct count when available, and always
// via a final duplicate check on small group counts) and reported.
func groupOrder(keys []uint32, vals []int64, dom props.Domain, ctl *govern.Ctl) (*GroupResult, error) {
	res := &GroupResult{}
	rv := resv{ctl: ctl}
	defer rv.release()
	chargeGroups := func() error {
		return rv.charge(int64(cap(res.Keys))*4 + int64(cap(res.States))*aggStateBytes)
	}
	if dom.Known {
		res.Keys = make([]uint32, 0, dom.Distinct)
		res.States = make([]hashtable.AggState, 0, dom.Distinct)
		if err := chargeGroups(); err != nil {
			return nil, err
		}
	}
	if len(keys) == 0 {
		res.Sorted = true
		return res, nil
	}
	cur := keys[0]
	var st hashtable.AggState
	addState(&st, valAt(vals, 0))
	sorted := true
	prevRun := cur
	first := true
	for i := 1; i < len(keys); i++ {
		if i%checkEvery == 0 {
			if err := ctl.Err(); err != nil {
				return nil, err
			}
			if err := chargeGroups(); err != nil {
				return nil, err
			}
		}
		k := keys[i]
		if k != cur {
			res.Keys = append(res.Keys, cur)
			res.States = append(res.States, st)
			if !first && cur < prevRun {
				sorted = false
			}
			prevRun = cur
			first = false
			cur = k
			st = hashtable.AggState{}
		}
		addState(&st, valAt(vals, i))
	}
	res.Keys = append(res.Keys, cur)
	res.States = append(res.States, st)
	if !first && cur < prevRun {
		sorted = false
	}
	res.Sorted = sorted && sortx.IsSortedUint32(res.Keys)

	if dom.Known && len(res.Keys) > int(dom.Distinct) {
		return nil, fmt.Errorf("physical: OG input not grouped: %d runs for %d distinct keys", len(res.Keys), dom.Distinct)
	}
	if !dom.Known && !res.Sorted && hasDuplicates(res.Keys) {
		return nil, fmt.Errorf("physical: OG input not grouped: duplicate runs detected")
	}
	return res, nil
}

func hasDuplicates(keys []uint32) bool {
	seen := make(map[uint32]struct{}, len(keys))
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			return true
		}
		seen[k] = struct{}{}
	}
	return false
}

// groupSortOrder is SOG: copy the input, sort key/value pairs, then OG. With
// opt.Parallel > 1 the sort runs as per-worker runs + pairwise merges, which
// produces the identical (stable) ordering, so the result is DOP-invariant.
func groupSortOrder(keys []uint32, vals []int64, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	// The sorted key/value copies, doubled when the parallel merge passes
	// need their swap buffers.
	perRow := int64(4)
	if vals != nil {
		perRow += 8
	}
	if opt.Parallel > 1 {
		perRow *= 2
	}
	if err := rv.add(perRow * int64(len(keys))); err != nil {
		return nil, err
	}
	stop := opt.Ctl.Err
	sk := make([]uint32, len(keys))
	copy(sk, keys)
	var sv []int64
	if vals != nil {
		sv = make([]int64, len(vals))
		copy(sv, vals)
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
	} else if opt.Parallel > 1 {
		if err := sortx.ParallelSortUint32Ctl(opt.Sort, sk, opt.Parallel, stop); err != nil {
			return nil, err
		}
	} else {
		if err := stop(); err != nil {
			return nil, err
		}
		sortx.SortUint32(opt.Sort, sk)
	}
	res, err := groupOrder(sk, sv, dom, opt.Ctl)
	if err != nil {
		return nil, err
	}
	res.Sorted = true
	return res, nil
}

// groupBinarySearch is BSG: the group directory is a sorted array probed by
// binary search; unseen keys are insertion-shifted into place. Lookup is
// O(log g); building pays O(g) per new key, amortised away for small g —
// which is exactly the regime where the paper finds BSG competitive.
func groupBinarySearch(keys []uint32, vals []int64, dom props.Domain, ctl *govern.Ctl) (*GroupResult, error) {
	capHint := 16
	if dom.Known {
		capHint = int(dom.Distinct)
	}
	rv := resv{ctl: ctl}
	defer rv.release()
	gk := make([]uint32, 0, capHint)
	gs := make([]hashtable.AggState, 0, capHint)
	if err := rv.charge(int64(cap(gk))*4 + int64(cap(gs))*aggStateBytes); err != nil {
		return nil, err
	}
	for i, k := range keys {
		if i%checkEvery == 0 {
			if err := ctl.Err(); err != nil {
				return nil, err
			}
			if err := rv.charge(int64(cap(gk))*4 + int64(cap(gs))*aggStateBytes); err != nil {
				return nil, err
			}
		}
		pos, found := searchUint32(gk, k)
		if !found {
			gk = append(gk, 0)
			gs = append(gs, hashtable.AggState{})
			copy(gk[pos+1:], gk[pos:])
			copy(gs[pos+1:], gs[pos:])
			gk[pos] = k
			gs[pos] = hashtable.AggState{}
		}
		addState(&gs[pos], valAt(vals, i))
	}
	return &GroupResult{Keys: gk, States: gs, Sorted: true}, nil
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

// OutputProps returns the property set of the grouping output given the
// input property set (for the key column named col): which algorithms yield
// sorted output, and the key domain of the result.
func (k GroupKind) OutputProps(in props.Set, col string) props.Set {
	out := props.NewSet()
	d := in.Domain(col)
	out.Cols[col] = d // grouping preserves the key domain exactly
	switch k {
	case SPHG, SOG, BSG:
		out.SortedBy = []string{col}
	case OG:
		if in.SortedOn(col) {
			out.SortedBy = []string{col}
		} else {
			// Grouped input: output keys in first-run order — still one row
			// per key, trivially grouped.
			out.GroupedBy = []string{col}
		}
	case HG:
		// One row per key: grouped by definition, but unordered.
		out.GroupedBy = []string{col}
	}
	return out
}
