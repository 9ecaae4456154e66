package main

import (
	"hash/fnv"
	"math/rand/v2"
	"sort"

	"dqo"
	"dqo/internal/storage"
)

// A column holds one of the two value kinds the workloads use.
type column struct {
	name string
	u32  []uint32
	i64  []int64
}

func (c column) at(i int) int64 {
	if c.u32 != nil {
		return int64(c.u32[i])
	}
	return c.i64[i]
}

// A table is the benchmark's own copy of an input relation: the same slices
// feed the engine (engineTable, relation) and the reference evaluator.
type table struct {
	name string
	cols []column
	corr [2]string // declared order correlation key→dep, "" for none
}

func (t *table) rows() int {
	if c := t.cols[0]; c.u32 != nil {
		return len(c.u32)
	}
	return len(t.cols[0].i64)
}

func (t *table) col(name string) column {
	for _, c := range t.cols {
		if c.name == name {
			return c
		}
	}
	panic("bench: table " + t.name + " has no column " + name)
}

// engineTable builds the public-API table registered with a dqo.DB.
func (t *table) engineTable() *dqo.Table {
	b := dqo.NewTableBuilder(t.name)
	for _, c := range t.cols {
		if c.u32 != nil {
			b.Uint32(c.name, c.u32)
		} else {
			b.Int64(c.name, c.i64)
		}
	}
	out := b.MustBuild()
	if t.corr[0] != "" {
		out.DeclareCorrelation(t.corr[0], t.corr[1])
	}
	return out
}

// relation builds the internal relation the traced pipeline binds against.
func (t *table) relation() *storage.Relation {
	cols := make([]*storage.Column, len(t.cols))
	for i, c := range t.cols {
		if c.u32 != nil {
			cols[i] = storage.NewUint32(c.name, c.u32)
		} else {
			cols[i] = storage.NewInt64(c.name, c.i64)
		}
	}
	rel := storage.MustNewRelation(t.name, cols...)
	if t.corr[0] != "" {
		rel.DeclareCorr(t.corr[0], t.corr[1])
	}
	return rel
}

// newRand derives an independent stream from the run seed and a purpose tag,
// so adding a table never shifts the keys of another.
func newRand(seed uint64, tag uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, tag))
}

// denseDomain is 0..g-1; sparseDomain is g ascending values, one uniform draw
// per equal-width stratum of the uint32 range (the paper's sparse keys).
func denseDomain(g int) []uint32 {
	d := make([]uint32, g)
	for i := range d {
		d[i] = uint32(i)
	}
	return d
}

func sparseDomain(r *rand.Rand, g int) []uint32 {
	d := make([]uint32, g)
	stride := uint64(1<<32) / uint64(g)
	for i := range d {
		d[i] = uint32(uint64(i)*stride + 1 + r.Uint64N(stride-1))
	}
	return d
}

func domain(r *rand.Rand, g int, dense bool) []uint32 {
	if dense {
		return denseDomain(g)
	}
	return sparseDomain(r, g)
}

// spread lays n keys over the domain with equal group sizes, ascending.
func spread(dom []uint32, n int) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = dom[i*len(dom)/n]
	}
	return keys
}

func shuffle32(r *rand.Rand, v []uint32) {
	r.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
}

func payload(r *rand.Rand, n int, mod uint64) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(r.Uint64N(mod))
	}
	return v
}

// groupingTable is one Figure-4 quadrant: n keys over exactly g groups of
// equal size, sorted or shuffled, dense or sparse, plus a small payload.
func groupingTable(seed uint64, name string, n, g int, sorted, dense bool) *table {
	r := newRand(seed, hashName(name))
	keys := spread(domain(r, g, dense), n)
	if !sorted {
		shuffle32(r, keys)
	}
	return &table{name: name, cols: []column{{name: "K", u32: keys}, {name: "V", i64: payload(r, n, 1000)}}}
}

// fkPair is the Figure-5 table pair: R(ID, A) with unique IDs and A a
// monotone function of ID, S(R_ID, M) with every R_ID drawn from R.ID.
func fkPair(seed uint64, rName, sName string, rRows, sRows, aGroups int, rSorted, sSorted, dense bool) (*table, *table) {
	r := newRand(seed, hashName(rName))
	ids := domain(r, rRows, dense)
	aDom := domain(r, aGroups, dense)
	a := make([]uint32, rRows)
	for i := range a {
		a[i] = aDom[i*aGroups/rRows]
	}
	rid := make([]uint32, sRows)
	for i := range rid {
		rid[i] = ids[r.IntN(rRows)]
	}
	if sSorted {
		sort.Slice(rid, func(i, j int) bool { return rid[i] < rid[j] })
	}
	if !rSorted {
		perm := r.Perm(rRows)
		sid, sa := make([]uint32, rRows), make([]uint32, rRows)
		for i, p := range perm {
			sid[i], sa[i] = ids[p], a[p]
		}
		ids, a = sid, sa
	}
	rt := &table{name: rName, cols: []column{{name: "ID", u32: ids}, {name: "A", u32: a}}, corr: [2]string{"ID", "A"}}
	st := &table{name: sName, cols: []column{{name: "R_ID", u32: rid}, {name: "M", i64: payload(r, sRows, 100)}}}
	return rt, st
}

// hashName turns a table name into a stream tag.
func hashName(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
