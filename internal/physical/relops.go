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

// FilterRel returns the rows of rel satisfying pred.
func FilterRel(rel *storage.Relation, pred expr.Expr) (*storage.Relation, error) {
	idx, err := expr.Selectivity(pred, rel)
	if err != nil {
		return nil, err
	}
	out := rel.Gather(idx)
	storage.PutInt32s(idx) // Gather copies; no reference survives
	return out, nil
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
	out := rel.GatherPar(perm, workers)
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
	return groupAndAssemble(rel, keyCol, aggs, func(args []aggArg) (*GroupResult, error) {
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
	return groupAndAssemble(rel, keyCol, aggs, func(args []aggArg) (*GroupResult, error) {
		return aggregateBundle(bundle, args, parallel), nil
	})
}

// groupAndAssemble runs the grouping kernel once over the distinct aggregate
// argument columns, in the order the columns first appear in aggs, each with
// the aggregates the statement needs of it, and assembles the output
// relation. The kernel's result arrays become the output columns as they
// are: COUNT of anything is the group's row count, SUM, MIN and MAX are the
// argument column's arrays, and only AVG computes (sum over count).
func groupAndAssemble(rel *storage.Relation, keyCol string, aggs []expr.AggSpec, run func(args []aggArg) (*GroupResult, error)) (*storage.Relation, error) {
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
	res, err := run(args)
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
			avg := make([]float64, g)
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
			vals = slices.Clone(vals)
		}
		outCols = append(outCols, storage.NewInt64(a.OutName(), vals))
	}
	return storage.NewRelation(rel.Name()+"_grouped", outCols...)
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

// BuildJoinTable is the build step of a serial HJ or SPHJ over rel's key
// column, for a caller that wants to own the table between the two steps;
// JoinRel with its Index() is the probe step, and the two together are a
// JoinRel that builds. A zero dom falls back to the relation's statistics.
func BuildJoinTable(rel *storage.Relation, key string, kind JoinKind, opt JoinOptions, dom props.Domain) (*JoinTable, error) {
	keys, err := keyColumn(rel, key)
	if err != nil {
		return nil, err
	}
	if kind != HJ && kind != SPHJ || opt.Parallel > 1 {
		return nil, fmt.Errorf("physical: %s (parallel=%d) has no build step of its own", kind, opt.Parallel)
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
	var res *JoinResult
	if idx != nil {
		rv := resv{ctl: opt.Ctl}
		defer rv.release()
		res, err = probeIndex(idx, probeKeys, probeWorkers(kind, opt), &rv, sides)
	} else {
		if !dom.Known {
			dom = domainOf(build, buildKey)
		}
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
	return out.assemble(res, opt.Parallel)
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

// assemble materialises the output from the join's matching row pairs: only
// the kept columns are gathered.
func (o *joinOutput) assemble(res *JoinResult, workers int) (*storage.Relation, error) {
	out := make([]*storage.Column, 0, o.lproj.NumCols()+o.rproj.NumCols())
	if o.lproj.NumCols() > 0 {
		out = append(out, o.lproj.GatherPar(res.LeftIdx, workers).Columns()...)
	}
	if o.rproj.NumCols() > 0 {
		for i, c := range o.rproj.GatherPar(res.RightIdx, workers).Columns() {
			out = append(out, c.Rename(o.rout[i]))
		}
	}
	return storage.NewRelation(o.name, out...)
}
