package physical

import (
	"math"
	"slices"
	"unsafe"

	"dqo/internal/storage"
)

// Aggregate state, sized to what the statement asks. A grouping kernel's job
// is to resolve each row's group — a dense id, or an SPH slot — a block of
// rows at a time; what a group accumulates lives here, in one state array per
// aggregate argument column indexed by that id. A column no aggregate takes
// MIN or MAX of keeps the 16-byte countSum; MIN or MAX selects the 32-byte
// wideState. Each layout's maintenance is one loop over a block of resolved
// ids, shared by every kernel and every group directory, so the inner loops
// hold no polling, no nil test and no dispatch.

// groupBlock is the number of rows a kernel resolves before it accumulates
// them: the ids of a block (8 KiB) stay in L1 next to the block's keys and
// values. Cancellation is polled and the budget charged once per block.
const groupBlock = 2048

// aggNeed says which running aggregates of an argument column a statement
// reads besides the row count every state keeps.
type aggNeed uint8

const (
	needSum aggNeed = 1 << iota
	needMin
	needMax
)

// aggArg is one distinct aggregate argument column and what is needed of it.
type aggArg struct {
	col  string // the column's name, for the caller's bookkeeping
	vals argVals
	need aggNeed
}

// wide reports whether the argument needs the 32-byte state.
func (a aggArg) wide() bool { return a.need&(needMin|needMax) != 0 }

// stateBytes is the size of one group's state for args: what the kernels
// allocate per group or SPH slot and charge to the budget. (cost/mem.go
// prices every state at the wide 32 bytes: an upper bound, kept so that
// Plan.Mem and the spill decisions do not depend on the aggregate list.)
func stateBytes(args []aggArg) int64 {
	if len(args) == 0 {
		return countSumBytes
	}
	var n int64
	for _, a := range args {
		if a.wide() {
			n += wideStateBytes
		} else {
			n += countSumBytes
		}
	}
	return n
}

// argVals is an aggregate argument column viewed as int64 values: an int64
// column's backing slice as it is, an unsigned column widened one block at a
// time. The zero value has no column: rows are only counted.
type argVals struct {
	i64 []int64
	u32 []uint32
	u64 []uint64
}

// unsigned reports whether window needs a buffer to widen into.
func (v argVals) unsigned() bool { return v.u32 != nil || v.u64 != nil }

// window returns rows [lo, hi) as int64 values, widened into buf when the
// column is unsigned (len(buf) >= hi-lo), and nil when there is no column.
func (v argVals) window(lo, hi int, buf []int64) []int64 {
	switch {
	case v.i64 != nil:
		return v.i64[lo:hi]
	case v.u32 != nil:
		buf = buf[:hi-lo]
		for i, x := range v.u32[lo:hi] {
			buf[i] = int64(x)
		}
		return buf
	case v.u64 != nil:
		buf = buf[:hi-lo]
		for i, x := range v.u64[lo:hi] {
			buf[i] = int64(x)
		}
		return buf
	}
	return nil
}

// clone returns the whole column as an []int64 drawn from s.
func (v argVals) clone(s *storage.Scratch) []int64 {
	n := len(v.i64) + len(v.u32) + len(v.u64) // one of them is set
	out := s.Int64s(n)
	if v.i64 != nil {
		copy(out, v.i64)
		return out
	}
	return v.window(0, n, out)
}

// weighted returns the column's values multiplied by w, one weight per row,
// drawn from s.
func (v argVals) weighted(w []int64, s *storage.Scratch) []int64 {
	out := v.clone(s)
	for i, x := range w {
		out[i] *= x
	}
	return out
}

// fold returns the sum, minimum and maximum of the column over rows (at
// least one).
func (v argVals) fold(rows []int32) (sum, mn, mx int64) {
	switch {
	case v.i64 != nil:
		return foldRows(v.i64, rows)
	case v.u32 != nil:
		return foldRows(v.u32, rows)
	default:
		return foldRows(v.u64, rows)
	}
}

func foldRows[T int64 | uint32 | uint64](vals []T, rows []int32) (sum, mn, mx int64) {
	mn, mx = math.MaxInt64, math.MinInt64
	for _, r := range rows {
		v := int64(vals[r])
		sum += v
		mn, mx = min(mn, v), max(mx, v)
	}
	return sum, mn, mx
}

// widenBuf returns the block buffer window needs for args, drawn from s: nil
// unless one of them is unsigned.
func widenBuf(args []aggArg, s *storage.Scratch) []int64 {
	for _, a := range args {
		if a.vals.unsigned() {
			return s.Int64s(groupBlock)
		}
	}
	return nil
}

// countSum is the narrow group state: COUNT and SUM, the two aggregates the
// paper's kernels compute on the fly (Section 4.1).
type countSum struct{ count, sum int64 }

// wideState is the group state of an argument column some aggregate takes
// MIN or MAX of. An empty state holds the identities of min and max, so
// folding a value or another state in needs no emptiness test.
type wideState struct{ count, sum, min, max int64 }

const (
	countSumBytes  = 16
	wideStateBytes = 32
)

var emptyWide = wideState{min: math.MaxInt64, max: math.MinInt64}

// addCount counts one row into the state of every id.
func addCount(st []countSum, ids []int32) {
	for _, g := range ids {
		st[g].count++
	}
}

// addNarrow folds vals[i] into the state of ids[i].
func addNarrow(st []countSum, ids []int32, vals []int64) {
	vals = vals[:len(ids)]
	for i, g := range ids {
		s := &st[g]
		s.count++
		s.sum += vals[i]
	}
}

// addWide folds vals[i] into the state of ids[i].
func addWide(st []wideState, ids []int32, vals []int64) {
	vals = vals[:len(ids)]
	for i, g := range ids {
		s, v := &st[g], vals[i]
		s.count++
		s.sum += v
		s.min = min(s.min, v)
		s.max = max(s.max, v)
	}
}

// mergeNarrow folds the partial state src[i] into dst[ids[i]].
func mergeNarrow(dst []countSum, ids []int32, src []countSum) {
	src = src[:len(ids)]
	for i, g := range ids {
		d := &dst[g]
		d.count += src[i].count
		d.sum += src[i].sum
	}
}

// mergeWide folds the partial state src[i] into dst[ids[i]].
func mergeWide(dst []wideState, ids []int32, src []wideState) {
	src = src[:len(ids)]
	for i, g := range ids {
		d, s := &dst[g], &src[i]
		d.count += s.count
		d.sum += s.sum
		d.min = min(d.min, s.min)
		d.max = max(d.max, s.max)
	}
}

// argState is the running aggregates of one argument column: exactly one of
// the two layouts, by aggArg.ws.
type argState struct {
	aggArg
	ns []countSum
	ws []wideState
}

// groups is the number of states held.
func (a *argState) groups() int { return len(a.ns) + len(a.ws) }

// rows is the number of rows folded into state i.
func (a *argState) rows(i int) int64 {
	if a.ws != nil {
		return a.ws[i].count
	}
	return a.ns[i].count
}

// groupStates is the aggregate state of one kernel run: a state array per
// argument column, all indexed by the same group ids. A statement with no
// argument column (COUNT(*) alone) keeps one narrow array and only counts.
type groupStates struct {
	spec []aggArg         // the argument columns asked for; empty for a statement that only counts
	args []argState       // a state array per entry of spec, or the one column-less array that only counts
	buf  []int64          // argVals.window's widening buffer; nil when no column needs one
	s    *storage.Scratch // where the state, order and result arrays are drawn from
}

// newGroupStates returns states of n empty groups with room for capacity,
// drawing its arrays from s.
func newGroupStates(args []aggArg, n, capacity int, s *storage.Scratch) *groupStates {
	g := &groupStates{spec: args, buf: widenBuf(args, s), s: s}
	if len(args) == 0 {
		args = []aggArg{{}}
	}
	g.args = make([]argState, len(args))
	capacity = max(capacity, n)
	for i, a := range args {
		g.args[i].aggArg = a
		if a.wide() {
			g.args[i].ws = drawStates[wideState](s, capacity)[:0]
		} else {
			g.args[i].ns = drawStates[countSum](s, capacity)[:0]
		}
	}
	g.extend(n)
	return g
}

// drawStates draws n dirty states from s, as the int64 words they consist
// of: both state layouts are int64 fields alone.
func drawStates[S countSum | wideState](s *storage.Scratch, n int) []S {
	words := s.Int64s(n * int(unsafe.Sizeof(*new(S))) / 8)
	return unsafe.Slice((*S)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// extend grows every state array to n empty groups.
func (g *groupStates) extend(n int) {
	for i := range g.args {
		a := &g.args[i]
		if a.wide() {
			if old := len(a.ws); n > old {
				a.ws = slices.Grow(a.ws, n-old)[:n]
				for j := old; j < n; j++ {
					a.ws[j] = emptyWide
				}
			}
		} else if old := len(a.ns); n > old {
			a.ns = slices.Grow(a.ns, n-old)[:n]
			clear(a.ns[old:])
		}
	}
}

// memBytes is the heap footprint of the state arrays.
func (g *groupStates) memBytes() int64 {
	var n int64
	for i := range g.args {
		n += int64(cap(g.args[i].ns))*countSumBytes + int64(cap(g.args[i].ws))*wideStateBytes
	}
	return n
}

// add folds input rows [lo, lo+len(ids)) into the states of their groups
// ids, of which there are now groups.
func (g *groupStates) add(ids []int32, lo, groups int) {
	g.extend(groups)
	for i := range g.args {
		a := &g.args[i]
		vals := a.vals.window(lo, lo+len(ids), g.buf)
		switch {
		case a.wide():
			addWide(a.ws, ids, vals)
		case vals != nil:
			addNarrow(a.ns, ids, vals)
		default:
			addCount(a.ns, ids)
		}
	}
}

// merge folds groups [lo, lo+len(ids)) of the partial states src, built over
// the same arguments, into the groups ids, of which there are now groups.
func (g *groupStates) merge(ids []int32, src *groupStates, lo, groups int) {
	g.extend(groups)
	for i := range g.args {
		if a, s := &g.args[i], &src.args[i]; a.wide() {
			mergeWide(a.ws, ids, s.ws[lo:])
		} else {
			mergeNarrow(a.ns, ids, s.ns[lo:])
		}
	}
}

// reorder rearranges the states so that group i is the state order[i] was:
// the output order of a kernel whose ids are not already in it (an open
// table's slots, BSG's sorted directory).
func (g *groupStates) reorder(order []int32) {
	for i := range g.args {
		a := &g.args[i]
		if a.ws != nil {
			a.ws = gather(a.ws, order, drawStates[wideState](g.s, len(order)))
		} else {
			a.ns = gather(a.ns, order, drawStates[countSum](g.s, len(order)))
		}
	}
}

// compact drops the states no row was folded into, moving the others down in
// place, and returns base plus the index each survivor had, ascending:
// SPHG's slots becoming its output groups and their keys. The survivors are
// counted first, so that the keys — and the output arrays sized on them — are
// drawn at their final size.
func (g *groupStates) compact(base uint32) []uint32 {
	first := &g.args[0]
	survivors := 0
	for s, n := 0, first.groups(); s < n; s++ {
		if first.rows(s) != 0 {
			survivors++
		}
	}
	keys := g.s.Uint32s(survivors)[:0]
	for s, n := 0, first.groups(); s < n; s++ {
		if first.rows(s) == 0 {
			continue
		}
		for i := range g.args {
			if a := &g.args[i]; a.ws != nil {
				a.ws[len(keys)] = a.ws[s]
			} else {
				a.ns[len(keys)] = a.ns[s]
			}
		}
		keys = append(keys, base+uint32(s))
	}
	for i := range g.args {
		if a := &g.args[i]; a.ws != nil {
			a.ws = a.ws[:len(keys)]
		} else {
			a.ns = a.ns[:len(keys)]
		}
	}
	return keys
}

// gather writes st[order[0]], st[order[1]], … to out, as long as order, and
// returns it.
func gather[S any](st []S, order []int32, out []S) []S {
	for i, g := range order {
		out[i] = st[g]
	}
	return out
}

// result takes the states — dense and in output order by now — apart into
// the output arrays of a kernel whose groups are keys: the row counts and,
// per argument column, the aggregates asked of it.
func (g *groupStates) result(keys []uint32, sorted bool) *GroupResult {
	res := newGroupResult(slices.Clip(keys), g.spec, g.s)
	res.Sorted = sorted
	for j := range res.Counts {
		res.Counts[j] = g.args[0].rows(j)
	}
	for i := range res.Aggs {
		a, out := &g.args[i], &res.Aggs[i]
		if out.Sum != nil {
			for j := range a.ns {
				out.Sum[j] = a.ns[j].sum
			}
			for j := range a.ws {
				out.Sum[j] = a.ws[j].sum
			}
		}
		for j := range out.Min {
			out.Min[j] = a.ws[j].min
		}
		for j := range out.Max {
			out.Max[j] = a.ws[j].max
		}
	}
	return res
}
