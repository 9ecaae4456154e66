package physical

import (
	"fmt"
	"slices"

	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// This file lifts the kernel algorithms to whole relations: filter, project,
// sort, group-by, and join operators that consume and produce
// storage.Relation values. The morsel executor (internal/exec) splits them
// into two classes:
//
//   - FilterRel and ProjectRel are morsel-decomposable: applying them to
//     each row-range chunk of a relation and concatenating the outputs
//     yields exactly the whole-relation result, so the executor runs them
//     per morsel. TestRelopsMorselDecomposable pins this contract.
//   - SortRel, GroupByRel(Bundle) and JoinRel are pipeline breakers — their
//     results depend on the whole input — so the executor drains their
//     inputs and invokes them once, behind the same operator interface.
//     What a breaker receives is a possibly aliasing view, not a private
//     copy: a drained scan is a re-slice of the scanned table itself
//     (storage.Concat), so these kernels never write their inputs.

// keyColumn extracts a uint32 key view of a column usable for grouping and
// joining (uint32 values or dictionary codes).
func keyColumn(rel *storage.Relation, name string) ([]uint32, error) {
	c, ok := rel.Column(name)
	if !ok {
		return nil, fmt.Errorf("physical: relation %q has no column %q", rel.Name(), name)
	}
	switch c.Kind() {
	case storage.KindUint32, storage.KindString:
		return c.Uint32s(), nil
	default:
		return nil, fmt.Errorf("physical: column %q has kind %s; grouping/join keys must be uint32 or dictionary-encoded strings", name, c.Kind())
	}
}

// domainOf converts a column's stored statistics into a props.Domain.
func domainOf(rel *storage.Relation, name string) props.Domain {
	c, ok := rel.Column(name)
	if !ok {
		return props.Domain{}
	}
	st := c.Stats()
	return props.FromStats(st.Rows, st.Min, st.Max, st.Distinct, st.Dense, st.Exact)
}

// keySorted reports whether rel's (uint32 or dictionary-coded) key column is
// non-decreasing: the linear, allocation-free check the sort and join
// kernels assert their order postcondition with. Full statistics would
// build a distinct-count map over every output row to learn one bit.
func keySorted(rel *storage.Relation, name string) bool {
	return sortx.IsSortedUint32(rel.MustColumn(name).Uint32s())
}

// FilterRel returns the rows of rel satisfying pred, gathered into arrays
// drawn from s (nil: fresh arrays). The predicate reads rel whole; the output
// keeps only the columns keep names, in rel's order (nil: every column; names
// rel lacks are ignored). A keep that names none of rel's columns keeps them
// all: a relation holds its row count only through a column.
func FilterRel(rel *storage.Relation, pred expr.Expr, keep []string, s *storage.Scratch) (*storage.Relation, error) {
	idx, err := expr.Selectivity(pred, rel)
	if err != nil {
		return nil, err
	}
	defer storage.PutInt32s(idx) // Gather copies; no reference survives
	cols := make([]*storage.Column, 0, rel.NumCols())
	for _, c := range rel.Columns() {
		if keep == nil || slices.Contains(keep, c.Name()) {
			cols = append(cols, c.Gather(s, idx))
		}
	}
	if len(cols) == 0 {
		return rel.Gather(s, idx), nil
	}
	return storage.NewRelation(rel.Name(), cols...)
}

// ProjectRel returns rel restricted to the named columns.
func ProjectRel(rel *storage.Relation, cols ...string) (*storage.Relation, error) {
	return rel.Project(cols...)
}

// SortRel returns rel sorted ascending by the key column (stable), with the
// argsort and the gather fanned across workers; at most one worker sorts
// serially, and every worker count gives the same output. Input already in
// key order is returned as it is, with nothing charged: a stable sort of it
// is the identity. ctl's cancellation is polled inside the argsort, and the
// permutation plus the merge passes' swap buffer, 8 B per row, are charged
// against its budget; a nil ctl is ungoverned. The output's statistics stay
// lazy, for the rare caller that asks.
func SortRel(rel *storage.Relation, keyCol string, kind sortx.Kind, workers int, ctl *govern.Ctl) (*storage.Relation, error) {
	keys, err := keyColumn(rel, keyCol)
	if err != nil {
		return nil, err
	}
	if err := ctl.Err(); err != nil {
		return nil, err
	}
	if sortx.IsSortedUint32(keys) {
		return rel, nil
	}
	rv := resv{ctl: ctl}
	defer rv.release()
	if err := rv.add(int64(rel.NumRows()) * 8); err != nil {
		return nil, err
	}
	var stop func() error // nil when ungoverned: the method value would allocate
	if ctl != nil {
		stop = ctl.Err
	}
	perm, err := sortx.ParallelArgSortUint32Ctl(kind, keys, workers, stop)
	if err != nil {
		return nil, err
	}
	out := rel.GatherPar(ctl.Arena(), perm, workers)
	if !keySorted(out, keyCol) {
		return nil, fmt.Errorf("physical: SortRel postcondition violated on %q", keyCol)
	}
	return out, nil
}

// GroupByRel groups rel by keyCol and computes the requested aggregates
// using the chosen algorithm. dom describes the key domain: the optimiser
// passes the one it planned with, which may be a (dense) superset of the data
// actually present (e.g. after a selective join); a zero dom falls back to
// the relation's own statistics. The output relation has the key column
// first (kind preserved, including dictionaries) followed by one column per
// aggregate. Aggregate argument columns must be integer-kinded.
func GroupByRel(rel *storage.Relation, keyCol string, aggs []expr.AggSpec, kind GroupKind, opt GroupOptions, dom props.Domain) (*storage.Relation, error) {
	keys, err := keyColumn(rel, keyCol)
	if err != nil {
		return nil, err
	}
	if !dom.Known {
		dom = domainOf(rel, keyCol)
	}
	return groupAndAssemble(rel, keyCol, aggs, opt.Ctl.Arena(), func(args []aggArg) (*GroupResult, error) {
		return groupArgs(kind, keys, args, dom, opt)
	})
}

// GroupByRelBundle executes grouping via the Figure 2 producer-bundle
// engine: partitionBy splits the input into one producer per group, then
// each producer is aggregated independently (with parallel > 1, by a
// worker pool — legal exactly because the producers are independent).
func GroupByRelBundle(rel *storage.Relation, keyCol string, aggs []expr.AggSpec, strat PartitionStrategy, hash hashtable.Func, parallel int, dom props.Domain) (*storage.Relation, error) {
	keys, err := keyColumn(rel, keyCol)
	if err != nil {
		return nil, err
	}
	if !dom.Known {
		dom = domainOf(rel, keyCol)
	}
	bundle, err := PartitionBy(keys, dom, strat, hash)
	if err != nil {
		return nil, err
	}
	return groupAndAssemble(rel, keyCol, aggs, nil, func(args []aggArg) (*GroupResult, error) {
		return aggregateBundle(bundle, args, parallel), nil
	})
}

// groupAndAssemble runs the grouping kernel once over the distinct aggregate
// argument columns, in the order the columns first appear in aggs, each with
// the aggregates the statement needs of it, and assembles the output
// relation. The kernel's result arrays become the output columns as they
// are: COUNT of anything is the group's row count, SUM, MIN and MAX are the
// argument column's arrays, and only AVG computes (sum over count). The
// arrays it computes or copies are drawn from s.
func groupAndAssemble(rel *storage.Relation, keyCol string, aggs []expr.AggSpec, s *storage.Scratch, run func(args []aggArg) (*GroupResult, error)) (*storage.Relation, error) {
	args := make([]aggArg, 0, len(aggs))
	argOf := func(col string) int { return slices.IndexFunc(args, func(a aggArg) bool { return a.col == col }) }
	for _, a := range aggs {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if a.Col == "" {
			continue
		}
		at := argOf(a.Col)
		if at < 0 {
			vals, err := aggArgument(rel, a.Col)
			if err != nil {
				return nil, err
			}
			at, args = len(args), append(args, aggArg{col: a.Col, vals: vals})
		}
		switch a.Func {
		case expr.AggSum, expr.AggAvg:
			args[at].need |= needSum
		case expr.AggMin:
			args[at].need |= needMin
		case expr.AggMax:
			args[at].need |= needMax
		}
	}
	// COUNT(col) reads the row count: a column of which nothing else is
	// asked is validated above and then not handed to the kernel.
	args = slices.DeleteFunc(args, func(a aggArg) bool { return a.need == 0 })
	var res *GroupResult
	var err error
	if w, ok := rel.Column(WeightCol); ok {
		res, err = groupWeighted(run, args, w.Int64s(), s)
	} else {
		res, err = run(args)
	}
	if err != nil {
		return nil, err
	}

	keySrc, _ := rel.Column(keyCol)
	outCols := make([]*storage.Column, 0, 1+len(aggs))
	var keyOut *storage.Column
	if keySrc.Kind() == storage.KindString {
		keyOut = storage.NewStringCodes(keyCol, res.Keys, keySrc.Dict())
	} else {
		keyOut = storage.NewUint32(keyCol, res.Keys)
	}
	// Ground-truth stats for the output key column: one row per distinct
	// key; sortedness per the kernel; domain inherited. A sorted output has
	// its extremes at its ends.
	g := len(res.Keys)
	kst := storage.Stats{Rows: g, Distinct: g, Sorted: res.Sorted, Exact: true}
	if g > 0 {
		mn, mx := res.Keys[0], res.Keys[g-1]
		if !res.Sorted {
			mn, mx = slices.Min(res.Keys), slices.Max(res.Keys)
		}
		kst.Min, kst.Max = uint64(mn), uint64(mx)
		kst.Dense = uint64(g) == kst.Max-kst.Min+1
	} else {
		kst.Dense = true
	}
	keyOut.SetStats(kst)
	outCols = append(outCols, keyOut)

	for i, a := range aggs {
		var vals []int64
		switch a.Func {
		case expr.AggCount:
			vals = res.Counts
		case expr.AggSum:
			vals = res.Aggs[argOf(a.Col)].Sum
		case expr.AggMin:
			vals = res.Aggs[argOf(a.Col)].Min
		case expr.AggMax:
			vals = res.Aggs[argOf(a.Col)].Max
		}
		if a.OutKind() == storage.KindFloat64 { // AVG: sum over count
			avg := s.Float64s(g)
			for j, sum := range res.Aggs[argOf(a.Col)].Sum {
				avg[j] = float64(sum) / float64(res.Counts[j])
			}
			outCols = append(outCols, storage.NewFloat64(a.OutName(), avg))
			continue
		}
		// A result array an earlier aggregate already reads (COUNT(*) and
		// COUNT(v), SUM(v) twice) backs that one's column; this one copies.
		if slices.ContainsFunc(aggs[:i], func(b expr.AggSpec) bool {
			return b.Func == a.Func && (b.Col == a.Col || a.Func == expr.AggCount)
		}) {
			vals = append(s.Int64s(len(vals))[:0], vals...)
		}
		outCols = append(outCols, storage.NewInt64(a.OutName(), vals))
	}
	return storage.NewRelation(rel.Name()+"_grouped", outCols...)
}

// groupWeighted runs the kernel over a weighted input, whose row i stands for
// w[i] equal rows. The kernel is handed the weights, whose sum per group is
// its row count; every column args sums, multiplied by the weights (int64
// wrap-around makes Σ w·x exactly the sum over the rows the input stands
// for); and every column args takes MIN or MAX of, as it is. The result holds
// what args asks of the rows the input stands for, in the kernel's group
// order: the order of the unweighted input whenever the kernel's order
// depends only on each key's first row.
func groupWeighted(run func(args []aggArg) (*GroupResult, error), args []aggArg, w []int64, s *storage.Scratch) (*GroupResult, error) {
	in := append(make([]aggArg, 0, 1+2*len(args)), aggArg{vals: argVals{i64: w}, need: needSum})
	for _, a := range args {
		if a.need&needSum != 0 {
			in = append(in, aggArg{col: a.col, vals: argVals{i64: a.vals.weighted(w, s)}, need: needSum})
		}
		if mm := a.need &^ needSum; mm != 0 {
			in = append(in, aggArg{col: a.col, vals: a.vals, need: mm})
		}
	}
	res, err := run(in)
	if err != nil {
		return nil, err
	}
	out := &GroupResult{Keys: res.Keys, Counts: res.Aggs[0].Sum, Sorted: res.Sorted}
	if len(args) > 0 {
		out.Aggs = make([]ColAggs, len(args))
	}
	next := 1
	for i, a := range args {
		if a.need&needSum != 0 {
			out.Aggs[i].Sum = res.Aggs[next].Sum
			next++
		}
		if a.need&^needSum != 0 {
			out.Aggs[i].Min, out.Aggs[i].Max = res.Aggs[next].Min, res.Aggs[next].Max
			next++
		}
	}
	return out, nil
}

// aggArgument returns an aggregate argument column as a view the kernels
// read int64 values through: no copy, whatever the column's integer kind.
func aggArgument(rel *storage.Relation, col string) (argVals, error) {
	c, ok := rel.Column(col)
	if !ok {
		return argVals{}, fmt.Errorf("physical: aggregate argument column %q not found", col)
	}
	switch c.Kind() {
	case storage.KindInt64:
		return argVals{i64: c.Int64s()}, nil
	case storage.KindUint32:
		return argVals{u32: c.Uint32s()}, nil
	case storage.KindUint64:
		return argVals{u64: c.Uint64s()}, nil
	default:
		return argVals{}, fmt.Errorf("physical: cannot aggregate %s column %q", c.Kind(), col)
	}
}

// BuildJoinTable is the build step of an HJ or SPHJ over rel's key column, for a caller that wants to own the table between the two steps;
// JoinRel with its Index() is the probe step, and the two together are a
// JoinRel that builds. A zero dom falls back to the relation's statistics.
func BuildJoinTable(rel *storage.Relation, key string, kind JoinKind, opt JoinOptions, dom props.Domain) (*JoinTable, error) {
	keys, err := keyColumn(rel, key)
	if err != nil {
		return nil, err
	}
	if kind != HJ && kind != SPHJ {
		return nil, fmt.Errorf("physical: %s has no build step of its own", kind)
	}
	if !dom.Known {
		dom = domainOf(rel, key)
	}
	return buildJoinTable(kind, keys, dom, opt)
}

// JoinRel joins left and right on leftKey = rightKey using the chosen
// algorithm: the one relation-level join, fresh build or prebuilt index,
// either build side, in memory or as one partition of a spill twin. The
// output contains the left columns followed by the right ones, right columns
// whose names clash suffixed "_r", whichever side builds.
//   - dom describes the build-side key domain; a zero dom falls back to the
//     build relation's statistics.
//   - swapped builds on right and probes with left (join commutativity).
//   - A non-nil cols keeps only the output columns it names (after "_r"
//     suffixing; names the output does not have are ignored), and only those
//     are gathered. The plan compiler passes the columns the join's ancestors
//     reference.
//   - A non-nil idx is an index somebody built over the whole key column of
//     the build side, so only the probe runs: the probe step of a join whose
//     caller did the build step itself (BuildJoinTable), or of one whose
//     build was paid offline (an Algorithmic View). kind says whether idx is
//     HJ's multimap or SPHJ's directory; dom is then unused.
//
// It decides the output schema, runs the kernel in build/probe terms for
// only the row ids that schema gathers, checks a claimed key order and
// assembles.
func JoinRel(left, right *storage.Relation, leftKey, rightKey string, kind JoinKind, opt JoinOptions, dom props.Domain, swapped bool, cols []string, idx RowIndex) (*storage.Relation, error) {
	return joinRel(left, right, leftKey, rightKey, kind, opt, dom, swapped, cols, idx, false)
}

// WeightCol names the int64 column that makes a relation weighted: its row i
// stands for WeightCol[i] equal rows. CountJoinRel writes it, a grouping
// (GroupByRel) folds a weighted row as that many rows, and Rows counts
// through it; no other operator ever sees one. No column of a query can
// carry the name: the SQL binder qualifies every base column as
// alias.column, and an aggregate output is named after its function or by
// an SQL identifier, which cannot hold "⟨".
const WeightCol = "⟨matches⟩"

// Rows returns the number of rows rel stands for: the sum of its weights when
// it is weighted, its row count otherwise.
func Rows(rel *storage.Relation) int64 {
	w, ok := rel.Column(WeightCol)
	if !ok {
		return int64(rel.NumRows())
	}
	var n int64
	for _, x := range w.Int64s() {
		n += x
	}
	return n
}

// CountJoinRel is JoinRel for a consumer that folds a weighted row as that
// many rows: a grouping whose key and arguments are columns of one input.
// When the columns kept are all of one input, and the join is an HJ, an SPHJ
// or a prebuilt index that can count, it emits every row of that
// input with w > 0 matches once, in input order, weighted w (WeightCol):
// the pairs' multiset of kept rows, without the pairs. The kept input's
// matches are counted by probing (Multi.CountEach, SPH.CountEach) when it is
// the probe side, and per build row (Multi.CountRows, SPH.CountRows) when it
// is the build side. Otherwise it is JoinRel.
func CountJoinRel(left, right *storage.Relation, leftKey, rightKey string, kind JoinKind, opt JoinOptions, dom props.Domain, swapped bool, cols []string, idx RowIndex) (*storage.Relation, error) {
	return joinRel(left, right, leftKey, rightKey, kind, opt, dom, swapped, cols, idx, true)
}

// joinRel is JoinRel, or with count set CountJoinRel.
func joinRel(left, right *storage.Relation, leftKey, rightKey string, kind JoinKind, opt JoinOptions, dom props.Domain, swapped bool, cols []string, idx RowIndex, count bool) (*storage.Relation, error) {
	lk, err := keyColumn(left, leftKey)
	if err != nil {
		return nil, err
	}
	rk, err := keyColumn(right, rightKey)
	if err != nil {
		return nil, err
	}
	out, err := newJoinOutput(left, right, cols)
	if err != nil {
		return nil, err
	}
	build, buildKey, buildKeys, probeKeys, sides := left, leftKey, lk, rk, out.sides()
	if swapped {
		build, buildKey, buildKeys, probeKeys, sides = right, rightKey, rk, lk, sides.swap()
	}
	if !dom.Known && idx == nil {
		dom = domainOf(build, buildKey)
	}
	if count && sides != bothRows {
		rel, ok, err := out.counted(kind, opt, dom, buildKeys, probeKeys, sides == rightRows, idx)
		if ok || err != nil {
			return rel, err
		}
	}
	var res *JoinResult
	if idx != nil {
		rv := resv{ctl: opt.Ctl}
		defer rv.release()
		res, err = probeIndex(idx, probeKeys, opt.Parallel, &rv, sides)
	} else {
		res, err = joinSides(kind, buildKeys, probeKeys, dom, opt, sides)
	}
	if err != nil {
		return nil, err
	}
	if swapped {
		res.LeftIdx, res.RightIdx = res.RightIdx, res.LeftIdx
	}
	defer res.Release() // the gather below copies; nothing aliases the row ids after it
	// Matching rows hold equal keys, so whichever side's row ids were kept
	// shows the order of the output's key.
	keys, ids := lk, res.LeftIdx
	if ids == nil {
		keys, ids = rk, res.RightIdx
	}
	if res.SortedByKey && !gatherSorted(keys, ids) {
		return nil, fmt.Errorf("physical: join claimed sorted output but key column is not sorted")
	}
	return out.assemble(res, opt.Parallel, opt.Ctl.Arena())
}

// gatherSorted reports whether keys[idx[0]], keys[idx[1]], ... is
// non-decreasing: the sortedness of a gathered key column, checked without
// materialising it. Non-decreasing ids into sorted keys — the probe side of a
// probe-major join over a sorted probe input — say so in two sequential
// passes; anything else is read through every id.
func gatherSorted(keys []uint32, idx []int32) bool {
	if slices.IsSorted(idx) && sortx.IsSortedUint32(keys) {
		return true
	}
	for i := 1; i < len(idx); i++ {
		if keys[idx[i]] < keys[idx[i-1]] {
			return false
		}
	}
	return true
}

// joinOutput is the output schema of a join — the one every join breaker
// (in-memory, spill twin, AV index) builds its result through. The schema is
// the left columns followed by the right columns, a right column whose name
// clashes suffixed "_r"; names are decided on the full inputs, then a
// non-nil cols keeps only the output columns it names. It is decided before
// the join runs, so that a side none of whose columns is kept gets no row-id
// array at all.
type joinOutput struct {
	name         string
	lproj, rproj *storage.Relation // the kept columns of each side
	rout         []string          // output names of rproj's columns
}

func newJoinOutput(left, right *storage.Relation, cols []string) (*joinOutput, error) {
	keep := func(name string) bool { return cols == nil || slices.Contains(cols, name) }
	used := make(map[string]bool, left.NumCols()+right.NumCols())
	var lsrc, rsrc, rout []string
	for _, c := range left.Columns() {
		used[c.Name()] = true
		if keep(c.Name()) {
			lsrc = append(lsrc, c.Name())
		}
	}
	for _, c := range right.Columns() {
		name := c.Name()
		if used[name] {
			name += "_r"
		}
		used[name] = true
		if keep(name) {
			rsrc = append(rsrc, c.Name())
			rout = append(rout, name)
		}
	}
	if len(lsrc)+len(rsrc) == 0 {
		return nil, fmt.Errorf("physical: join output keeps none of its columns (asked for %v)", cols)
	}
	lproj, err := left.Project(lsrc...)
	if err != nil {
		return nil, err
	}
	rproj, err := right.Project(rsrc...)
	if err != nil {
		return nil, err
	}
	return &joinOutput{name: left.Name() + "_join_" + right.Name(), lproj: lproj, rproj: rproj, rout: rout}, nil
}

// sides reports which inputs' rows the output gathers.
func (o *joinOutput) sides() pairSides {
	var s pairSides
	if o.lproj.NumCols() > 0 {
		s |= leftRows
	}
	if o.rproj.NumCols() > 0 {
		s |= rightRows
	}
	return s
}

// counted is CountJoinRel's output when the output keeps one input's columns
// alone — the probe side's when keepProbe — and idx, or the table an HJ or an
// SPHJ builds over buildKeys when idx is nil, can count that side's
// matches; ok is false when they cannot be counted. Rows with no match are
// left out, and when every row has one the kept columns are the input's own.
// The weights are drawn for every kept-side row, matched or not.
func (o *joinOutput) counted(kind JoinKind, opt JoinOptions, dom props.Domain, buildKeys, probeKeys []uint32, keepProbe bool, idx RowIndex) (rel *storage.Relation, ok bool, err error) {
	if idx == nil {
		if kind != HJ && kind != SPHJ {
			return nil, false, nil
		}
		t, err := buildJoinTable(kind, buildKeys, dom, opt)
		if err != nil {
			return nil, true, err
		}
		defer t.Release()
		idx = t.idx
	}
	counts, ok, err := matchCounts(idx, buildKeys, probeKeys, keepProbe, opt.Parallel, opt.Ctl)
	if !ok || err != nil {
		return nil, ok, err
	}
	defer storage.PutInt32s(counts)
	kept, names := o.lproj, []string(nil)
	if o.lproj.NumCols() == 0 {
		kept, names = o.rproj, o.rout
	}
	// One pass turns the counts into the weights of the rows that match and,
	// in place, the ids of those rows: counts[n] is written only once
	// counts[i], i >= n, has been read.
	s := opt.Ctl.Arena()
	w := s.Int64s(len(counts))
	n := 0
	for i, c := range counts {
		w[n], counts[n] = int64(c), int32(i)
		if c > 0 {
			n++
		}
	}
	w = w[:n]
	if n < len(counts) {
		kept = kept.GatherPar(s, counts[:n], opt.Parallel)
	}
	cols := make([]*storage.Column, 0, kept.NumCols()+1)
	for i, c := range kept.Columns() {
		if names != nil {
			c = c.Rename(names[i])
		}
		cols = append(cols, c)
	}
	rel, err = storage.NewRelation(o.name, append(cols, storage.NewInt64(WeightCol, w))...)
	return rel, true, err
}

// assemble materialises the output from the join's matching row pairs: only
// the kept columns are gathered, into arrays drawn from s.
func (o *joinOutput) assemble(res *JoinResult, workers int, s *storage.Scratch) (*storage.Relation, error) {
	out := make([]*storage.Column, 0, o.lproj.NumCols()+o.rproj.NumCols())
	if o.lproj.NumCols() > 0 {
		out = append(out, o.lproj.GatherPar(s, res.LeftIdx, workers).Columns()...)
	}
	if o.rproj.NumCols() > 0 {
		for i, c := range o.rproj.GatherPar(s, res.RightIdx, workers).Columns() {
			out = append(out, c.Rename(o.rout[i]))
		}
	}
	return storage.NewRelation(o.name, out...)
}
