package main

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"dqo"
)

// sizes fixes every input size of the benchmark. The seed drives keys,
// literals and the order of operations, never a size.
type sizes struct {
	serveRows, serveKeys, serveGroups int // serve-point: |R|, distinct A, distinct B
	starR, starS, starD               int // adhoc-plan star
	quadRows, quadGroups              int // scan-group Figure-4 quadrants
	fkR, fkS                          int // scan-group Figure-5 cells
	spillGroupRows, spillGroups       int // budget-spill high-cardinality group-by
	spillJoinRows, spillJoinMatches   int // budget-spill selective join
	spillSortRows                     int // budget-spill external sort
	runsRows, runsGroups              int // budget-spill compressed clustered runs table
	memLimit                          int64
	pool                              int // distinct operations generated per workload (upper bound)
}

// fullSizes is what the driver measures. The quadrants and FK cells are a
// quarter and a half of the sizes the issue names (2 M rows, 200 k / 900 k):
// at full size one six-query refresh takes 0.2 s, so the measured window the
// run-time cap allows would hold under 60 samples instead of 200.
var fullSizes = sizes{
	serveRows: 400, serveKeys: 40, serveGroups: 40,
	starR: 2000, starS: 9000, starD: 2000,
	quadRows: 300000, quadGroups: 20000,
	fkR: 50000, fkS: 225000,
	spillGroupRows: 120000, spillGroups: 30000,
	spillJoinRows: 70000, spillJoinMatches: 1000,
	spillSortRows: 115000,
	runsRows:      400000, runsGroups: 400,
	memLimit: 2 << 20,
	pool:     1000,
}

// smokeSizes keeps the test under ten seconds; it measures nothing. With no
// memory limit the budget-spill statements run in memory.
var smokeSizes = sizes{
	serveRows: 500, serveKeys: 50, serveGroups: 10,
	starR: 200, starS: 900, starD: 200,
	quadRows: 20000, quadGroups: 500,
	fkR: 2000, fkS: 9000,
	spillGroupRows: 12000, spillGroups: 3000,
	spillJoinRows: 7000, spillJoinMatches: 100,
	spillSortRows: 11500,
	runsRows:      40000, runsGroups: 40,
	pool: 120,
}

// frontend is how a workload's caller reaches the engine.
type frontend int

const (
	embedded frontend = iota // an application calling dqo.DB in process
	overHTTP                 // connection-pool clients of an in-process serve.Server
)

// A stmt is one statement of a workload with the settings it runs under.
type stmt struct {
	id       int
	q        *query
	mode     dqo.Mode
	prepared bool  // prepared once, arguments bound per call; else literal SQL text per call
	workers  int   // WithWorkers
	memLimit int64 // WithMemoryLimit; with spill also WithSpillDir
	spill    bool
}

// expectation is the reference answer of one (statement, arguments) pair,
// shared by every call that repeats the pair.
type expectation struct {
	expect
	seen atomic.Bool // first occurrence verified in full
}

// A call is one statement execution; an op is what one sample times.
type call struct {
	st   *stmt
	args []int64
	text string // literal SQL, for statements that are not prepared
	want *expectation
}

type op []call

// A blueprint is a workload instantiated for one seed, before any engine
// object exists: the tables, the statements and the operation pool. Operation
// i of the stream is ops[i % len(ops)].
type blueprint struct {
	front     frontend
	planCache bool     // DB-level template cache
	tables    []*table // registration order
	compress  []string // tables compressed after registration
	stmts     []*stmt
	ops       []op
	kernel    [2]string // table and key column the kernel and decode probes read
}

func (b *blueprint) table(name string) *table {
	for _, t := range b.tables {
		if t.name == name {
			return t
		}
	}
	panic("bench: blueprint has no table " + name)
}

func (b *blueprint) stmt(s stmt) *stmt {
	s.id = len(b.stmts)
	b.stmts = append(b.stmts, &s)
	return b.stmts[s.id]
}

func (b *blueprint) call(st *stmt, args ...int64) call {
	c := call{st: st, args: args}
	if !st.prepared {
		c.text = st.q.sql(args)
	}
	return c
}

// A workload is one named traffic mix. share names the layer groups that must
// hold at least half the traced time, capped the layers that must stay small.
type workload struct {
	name    string
	why     string
	clients int
	warmOps int // operations run as warm-up inside set-up
	exact   int // operations of the fixed prefix the exact counts are taken over
	build   func(seed uint64, sz sizes) *blueprint
	major   []string           // layer groups that must sum to >= 50% of traced time
	capped  map[string]float64 // layer group -> largest allowed share
}

var nproc = runtime.NumCPU()

var workloads = []workload{
	{
		name:    "serve-point",
		why:     "wire decode, session lookup, admission, rebind and JSON encode do the work and kernels almost none; the unexplained serving second lives here",
		clients: nproc, warmOps: 2000, exact: 500,
		build:  buildServePoint,
		major:  []string{"serve", "av", "sql"},
		capped: map[string]float64{"exec": 0.10},
	},
	{
		name:    "adhoc-plan",
		why:     "cache-off exact DQO over a two-join star: enumeration and costing dominate, so optimiser changes show here and kernel changes do not",
		clients: 1, warmOps: 72, exact: 144,
		build: buildAdhocPlan,
		major: []string{"core", "sql"},
	},
	{
		name:    "scan-group",
		why:     "Figure-4 quadrants and Figure-5 cells at scale: grouping and join kernels do over 95% of the work, planning is a rebind; where DQO's granule choice pays or not",
		clients: 1, warmOps: 3, exact: 4,
		build:  buildScanGroup,
		major:  []string{"exec"},
		capped: map[string]float64{"plan": 0.01},
	},
	{
		name:    "budget-spill",
		why:     "the same kernels memory-constrained and over encoded input: an in-memory win that costs reservations, spill volume or the compressed twins is caught",
		clients: 1, warmOps: 3, exact: 4,
		build: buildBudgetSpill,
		major: []string{"exec"},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildServePoint: 80% executes of a prepared point lookup, 20% one-shot
// filtered aggregates with a varying literal, so the median is a prepared
// execute and the 95th percentile a one-shot.
func buildServePoint(seed uint64, sz sizes) *blueprint {
	r := newRand(seed, hashName("serve-point"))
	n := sz.serveRows
	ids := denseDomain(n)
	shuffle32(r, ids)
	a := spread(denseDomain(sz.serveKeys), n)
	shuffle32(r, a)
	bcol := spread(denseDomain(sz.serveGroups), n)
	shuffle32(r, bcol)
	b := &blueprint{front: overHTTP, planCache: true, kernel: [2]string{"R", "A"}}
	b.tables = []*table{{name: "R", cols: []column{
		{name: "ID", u32: ids}, {name: "A", u32: a}, {name: "B", u32: bcol}, {name: "V", i64: payload(r, n, 1000)},
	}}}
	point := b.stmt(stmt{mode: dqo.ModeDQOCalibrated, prepared: true, q: &query{
		sel: []string{"ID"}, from: "R", where: []pred{{col: "A", op: "=", arg: 0}}, limit: -1,
	}})
	oneShot := b.stmt(stmt{mode: dqo.ModeDQOCalibrated, q: &query{
		sel: []string{"B"}, aggs: []agg{{fn: "COUNT"}, {fn: "SUM", col: "V"}}, from: "R",
		where: []pred{{col: "A", op: "<", arg: 0}}, groupBy: "B", limit: -1,
	}})
	for i := 0; i < sz.pool; i++ {
		if i%5 == 4 {
			// Literals stay in the middle fifth of the key range, so every
			// one-shot filters about half the table whatever the seed.
			lit := int64(sz.serveKeys*2/5 + r.IntN(sz.serveKeys/5))
			b.ops = append(b.ops, op{b.call(oneShot, lit)})
		} else {
			b.ops = append(b.ops, op{b.call(point, int64(r.IntN(sz.serveKeys)))})
		}
	}
	return b
}

// buildAdhocPlan: 36 statement shapes over the S⋈R⋈D star (3 FROM orders x 4
// filters x 3 tails), planned from text under exact DQO with the cache off.
// The seed draws the literals and the order in which shapes come up; every
// shape comes up equally often, so the latency mix is the same for any seed.
func buildAdhocPlan(seed uint64, sz sizes) *blueprint {
	r := newRand(seed, hashName("adhoc-plan"))
	rt, st := fkPair(seed, "R", "S", sz.starR, sz.starS, sz.starD, true, false, true)
	g := denseDomain(sz.starD)
	w := make([]int64, sz.starD)
	for i := range w {
		w[i] = int64(r.IntN(100))
	}
	b := &blueprint{front: embedded, kernel: [2]string{"S", "R_ID"}}
	b.tables = []*table{rt, st, {name: "D", cols: []column{{name: "G", u32: g}, {name: "W", i64: w}}}}

	froms := []struct {
		from  string
		joins []join
	}{
		{"S", []join{{"R", "S.R_ID", "R.ID"}, {"D", "R.A", "D.G"}}},
		{"R", []join{{"S", "R.ID", "S.R_ID"}, {"D", "R.A", "D.G"}}},
		{"D", []join{{"R", "D.G", "R.A"}, {"S", "R.ID", "S.R_ID"}}},
	}
	// Each filter keeps about half of the join whatever literal is drawn:
	// lo/span bound the literal to the middle of the column's range.
	type filter struct {
		preds    []pred
		lo, span []int
	}
	filters := []filter{
		{[]pred{{col: "R.A", op: "<", arg: 0}}, []int{sz.starD * 2 / 5}, []int{sz.starD / 5}},
		{[]pred{{col: "D.W", op: "<", arg: 0}}, []int{40}, []int{20}},
		{[]pred{{col: "S.M", op: ">=", arg: 0}}, []int{40}, []int{20}},
		{[]pred{{col: "R.A", op: ">=", arg: 0}, {col: "S.M", op: "<", arg: 1}}, []int{sz.starD / 10, 60}, []int{sz.starD / 10, 20}},
	}
	tails := []struct {
		aggs    []agg
		orderBy string
		limit   int
	}{
		{[]agg{{fn: "COUNT"}}, "", -1},
		{[]agg{{fn: "COUNT"}, {fn: "SUM", col: "S.M"}}, "R.A", -1},
		{[]agg{{fn: "COUNT"}, {fn: "SUM", col: "D.W"}}, "R.A", 20},
	}
	type shape struct {
		st *stmt
		f  filter
	}
	var shapes []shape
	for _, f := range froms {
		for _, fl := range filters {
			for _, t := range tails {
				q := &query{sel: []string{"R.A"}, aggs: t.aggs, from: f.from, joins: f.joins,
					where: fl.preds, groupBy: "R.A", orderBy: t.orderBy, limit: t.limit}
				shapes = append(shapes, shape{b.stmt(stmt{mode: dqo.ModeDQO, q: q}), fl})
			}
		}
	}
	rounds := max(sz.pool/len(shapes), 2)
	for round := 0; round < rounds; round++ {
		for _, si := range r.Perm(len(shapes)) {
			s := shapes[si]
			args := make([]int64, len(s.f.lo))
			for k := range args {
				args[k] = int64(s.f.lo[k] + r.IntN(s.f.span[k]))
			}
			b.ops = append(b.ops, op{b.call(s.st, args...)})
		}
	}
	return b
}

// quadrant names follow the paper's Figure 4.
var quadrants = []struct {
	table         string
	sorted, dense bool
}{
	{"T_sorted_sparse", true, false},
	{"T_sorted_dense", true, true},
	{"T_unsorted_sparse", false, false},
	{"T_unsorted_dense", false, true},
}

// buildScanGroup: one operation is a six-query refresh: the grouping query
// over the four Figure-4 quadrants and the Figure-5 join + group query over
// two FK cells, all prepared once. The two cells are one where DQO's estimated
// gain is largest (both unsorted, dense) and one where the estimate promises a
// gain on sparse keys (R sorted, S unsorted).
func buildScanGroup(seed uint64, sz sizes) *blueprint {
	b := &blueprint{front: embedded, kernel: [2]string{"T_unsorted_sparse", "K"}}
	var cycle op
	for _, qd := range quadrants {
		b.tables = append(b.tables, groupingTable(seed, qd.table, sz.quadRows, sz.quadGroups, qd.sorted, qd.dense))
		st := b.stmt(stmt{mode: dqo.ModeDQO, prepared: true, workers: nproc, q: &query{
			sel: []string{"K"}, aggs: []agg{{fn: "COUNT"}, {fn: "SUM", col: "V"}}, from: qd.table, groupBy: "K", limit: -1,
		}})
		cycle = append(cycle, b.call(st))
	}
	cells := []struct {
		r, s                    string
		rSorted, sSorted, dense bool
	}{
		{"R_unsorted_dense", "S_unsorted_dense", false, false, true},
		{"R_sorted_sparse", "S_unsorted_sparse", true, false, false},
	}
	for _, c := range cells {
		rt, st := fkPair(seed, c.r, c.s, sz.fkR, sz.fkS, sz.fkR, c.rSorted, c.sSorted, c.dense)
		b.tables = append(b.tables, rt, st)
		s := b.stmt(stmt{mode: dqo.ModeDQO, prepared: true, workers: nproc, q: &query{
			sel: []string{c.r + ".A"}, aggs: []agg{{fn: "COUNT"}}, from: c.r,
			joins: []join{{c.s, c.r + ".ID", c.s + ".R_ID"}}, groupBy: c.r + ".A", limit: -1,
		}})
		cycle = append(cycle, b.call(s))
	}
	b.ops = []op{cycle}
	return b
}

// buildBudgetSpill: a four-query cycle run serially under one memory limit
// with a spill directory: a high-cardinality group-by that spills, a
// selective key join whose build side spills, an ORDER BY through the external
// sort, and a range-filtered aggregate over a compressed clustered table.
//
// The join is not the Figure-5 FK join: the engine charges a join's output to
// the budget, so an FK join (|S| output rows) aborts rather than spills at
// every limit below its output size. Two tables of unique sparse keys that
// share few values keep the output small and the build side large.
func buildBudgetSpill(seed uint64, sz sizes) *blueprint {
	r := newRand(seed, hashName("budget-spill"))
	b := &blueprint{front: embedded, compress: []string{"C"}, kernel: [2]string{"G", "K"}}
	g := groupingTable(seed, "G", sz.spillGroupRows, sz.spillGroups, false, false)

	// P and Q hold unique keys from disjoint strata except for the first
	// spillJoinMatches of them, which both tables hold.
	n, m := sz.spillJoinRows, sz.spillJoinMatches
	dom := sparseDomain(r, 2*n-m)
	shuffle32(r, dom)
	pk := append([]uint32(nil), dom[:n]...)
	qk := append(append([]uint32(nil), dom[:m]...), dom[n:]...)
	shuffle32(r, pk)
	shuffle32(r, qk)
	p := &table{name: "P", cols: []column{{name: "K", u32: pk}, {name: "V", i64: payload(r, n, 1000)}}}
	q := &table{name: "Q", cols: []column{{name: "K", u32: qk}, {name: "W", i64: payload(r, n, 1000)}}}

	oid := sparseDomain(r, sz.spillSortRows)
	shuffle32(r, oid)
	oa := make([]uint32, len(oid))
	for i := range oa {
		oa[i] = uint32(r.IntN(1000))
	}
	o := &table{name: "O", cols: []column{{name: "ID", u32: oid}, {name: "A", u32: oa}}}
	c := groupingTable(seed, "C", sz.runsRows, sz.runsGroups, true, true)
	b.tables = []*table{g, p, q, o, c}

	base := stmt{mode: dqo.ModeDQOCalibrated, prepared: true, workers: 1, memLimit: sz.memLimit, spill: sz.memLimit > 0}
	with := func(q *query) *stmt { s := base; s.q = q; return b.stmt(s) }
	group := with(&query{sel: []string{"K"}, aggs: []agg{{fn: "COUNT"}, {fn: "SUM", col: "V"}}, from: "G", groupBy: "K", limit: -1})
	joinSt := with(&query{sel: []string{"P.K", "P.V", "Q.W"}, from: "P", joins: []join{{"Q", "P.K", "Q.K"}}, limit: -1})
	sortSt := with(&query{sel: []string{"ID", "A"}, from: "O", orderBy: "ID", limit: -1})
	runs := with(&query{sel: []string{"K"}, aggs: []agg{{fn: "COUNT"}, {fn: "SUM", col: "V"}}, from: "C",
		where: []pred{{col: "K", op: ">=", arg: 0}, {col: "K", op: "<", arg: 1}}, groupBy: "K", limit: -1})
	for i := 0; i < max(sz.pool/10, 8); i++ {
		// A tenth of the run domain, anywhere in it.
		lo := int64(r.IntN(sz.runsGroups * 9 / 10))
		b.ops = append(b.ops, op{b.call(group), b.call(joinSt), b.call(sortSt), b.call(runs, lo, lo+int64(sz.runsGroups/10))})
	}
	return b
}
