// Package av implements Algorithmic Views (paper Section 3): precomputed
// algorithm granules that shift optimisation and build work from query time
// to an offline phase, together with the Algorithmic View Selection Problem
// (AVSP) — deciding, under a space budget and for a given workload, which
// views to materialise.
//
// Three structure AV kinds are implemented, one per granularity the paper
// discusses:
//
//   - SortedProjection: a clustered copy of a table ordered by one column.
//     Plans starting from it inherit the sorted property for free (the
//     order-based operator family applies without enforcers).
//   - HashIndex: a prebuilt hash multimap over a key column — the build
//     phase of a hash join paid offline.
//   - SPHDirectory: a prebuilt static-perfect-hash directory over a dense
//     key column — the build phase of an SPH join paid offline.
//
// Plan-level AVs are covered by PlanCache (a fully optimised plan reused
// across queries, the prepared-statement analogy).
package av

import (
	"fmt"
	"sync/atomic"
	"time"

	"dqo/internal/crack"
	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// StructureKind identifies a materialised structure AV.
type StructureKind uint8

// Structure AV kinds. CrackedIndex is the adaptive one: a partial AV whose
// remaining optimisation (where exactly to partition) happens at query
// time, driven by the queries themselves (paper Section 6).
const (
	SortedProjection StructureKind = iota
	HashIndex
	SPHDirectory
	CrackedIndex
)

// String returns the kind name.
func (k StructureKind) String() string {
	switch k {
	case SortedProjection:
		return "sorted"
	case HashIndex:
		return "hashidx"
	case SPHDirectory:
		return "sph"
	case CrackedIndex:
		return "crack"
	default:
		return "unknown"
	}
}

// View is one materialised Algorithmic View.
type View struct {
	Kind      StructureKind
	Table     string
	Column    string
	SizeBytes int64         // memory footprint of the materialisation
	BuildTime time.Duration // offline cost actually paid
	// Adopted marks a view nobody asked for by name: a table a join built
	// over the whole column, offered to the catalog and kept (Catalog.Offer).
	// Explicit views are pinned; adopted ones live under the catalog's budget.
	Adopted bool

	rel  *storage.Relation // SortedProjection
	idx  physical.RowIndex // HashIndex (*hashtable.Multi), SPHDirectory (*hashtable.SPH)
	hash hashtable.Func    // HashIndex: the function idx hashes with
	crk  *crack.Cracker    // CrackedIndex

	joins  atomic.Int64 // joins served: each one a build that did not happen
	probes atomic.Int64 // keys those joins probed with
}

// Label returns e.g. "av:sorted(R.ID)".
func (v *View) Label() string {
	return fmt.Sprintf("av:%s(%s.%s)", v.Kind, v.Table, v.Column)
}

// SPH reports whether the view is an SPH directory (core.PrebuiltIndex).
func (v *View) SPH() bool { return v.Kind == SPHDirectory }

// Hash is the function a HashIndex view hashes with (core.PrebuiltIndex).
func (v *View) Hash() hashtable.Func { return v.hash }

// Serve implements core.PrebuiltIndex for HashIndex and SPHDirectory views:
// it hands the table itself to one join and counts the join as served.
func (v *View) Serve(probeRows int) physical.RowIndex {
	if v.idx == nil {
		panic(fmt.Sprintf("av: index probe on %s view", v.Kind))
	}
	v.joins.Add(1)
	v.probes.Add(int64(probeRows))
	return v.idx
}

// Served reports how many joins the view has served — builds saved — and how
// many keys they probed it with.
func (v *View) Served() (joins, probes int64) { return v.joins.Load(), v.probes.Load() }

// Relation returns the materialised relation of a SortedProjection view.
func (v *View) Relation() *storage.Relation {
	if v.Kind != SortedProjection {
		panic(fmt.Sprintf("av: Relation on %s view", v.Kind))
	}
	return v.rel
}

// Range64 implements core.RangeIndex for CrackedIndex views.
func (v *View) Range64(lo, hi uint64) []int32 {
	if v.Kind != CrackedIndex {
		panic(fmt.Sprintf("av: Range64 on %s view", v.Kind))
	}
	return v.crk.Range64(lo, hi)
}

// Pieces reports the adaptive index's current piece count (CrackedIndex).
func (v *View) Pieces() int {
	if v.Kind != CrackedIndex {
		panic(fmt.Sprintf("av: Pieces on %s view", v.Kind))
	}
	return v.crk.Pieces()
}

// MaterializeCracked builds a CrackedIndex AV over col. The build is a
// plain column copy — all real indexing work is deferred to query time.
func MaterializeCracked(table string, rel *storage.Relation, col string) (*View, error) {
	start := time.Now()
	keys, err := keyColumn(rel, col)
	if err != nil {
		return nil, err
	}
	return &View{
		Kind: CrackedIndex, Table: table, Column: col,
		SizeBytes: int64(len(keys)) * 8, // value copy + row ids
		BuildTime: time.Since(start),
		crk:       crack.New(keys),
	}, nil
}

// MaterializeSorted builds a SortedProjection AV: the whole table, stably
// sorted by col.
func MaterializeSorted(table string, rel *storage.Relation, col string) (*View, error) {
	start := time.Now()
	sorted, err := physical.SortRel(rel, col, sortx.Radix, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("av: materialising sorted(%s.%s): %w", table, col, err)
	}
	// Re-declare correlations on a permuted copy: a whole-row permutation
	// preserves them. Input already in order comes back as itself, holding
	// them already.
	if sorted != rel {
		for _, c := range rel.Corrs() {
			sorted.DeclareCorr(c[0], c[1])
		}
	}
	return &View{
		Kind: SortedProjection, Table: table, Column: col,
		SizeBytes: relationBytes(sorted),
		BuildTime: time.Since(start),
		rel:       sorted,
	}, nil
}

// MaterializeHashIndex builds a HashIndex AV over col.
func MaterializeHashIndex(table string, rel *storage.Relation, col string, fn hashtable.Func) (*View, error) {
	start := time.Now()
	keys, err := keyColumn(rel, col)
	if err != nil {
		return nil, err
	}
	m, err := hashtable.BuildMulti(fn, keys, nil, nil)
	if err != nil {
		return nil, err
	}
	return &View{
		Kind: HashIndex, Table: table, Column: col,
		SizeBytes: int64(len(keys)) * 16, // entry arena + directory estimate
		BuildTime: time.Since(start),
		idx:       m, hash: fn,
	}, nil
}

// MaterializeSPH builds an SPHDirectory AV over a dense key column.
func MaterializeSPH(table string, rel *storage.Relation, col string) (*View, error) {
	start := time.Now()
	keys, err := keyColumn(rel, col)
	if err != nil {
		return nil, err
	}
	c, _ := rel.Column(col)
	st := c.Stats()
	if !st.Exact || !st.Dense || st.Rows == 0 {
		return nil, fmt.Errorf("av: sph(%s.%s) requires a dense key column, have %s", table, col, st)
	}
	width := st.Max - st.Min + 1
	if width > 1<<24 {
		return nil, fmt.Errorf("av: sph(%s.%s) domain width %d too large", table, col, width)
	}
	d, err := hashtable.BuildSPH(keys, uint32(st.Min), int(width), nil)
	if err != nil {
		return nil, err
	}
	return &View{
		Kind: SPHDirectory, Table: table, Column: col,
		SizeBytes: int64(width)*4 + int64(len(keys))*4,
		BuildTime: time.Since(start),
		idx:       d,
	}, nil
}

func keyColumn(rel *storage.Relation, col string) ([]uint32, error) {
	c, ok := rel.Column(col)
	if !ok {
		return nil, fmt.Errorf("av: relation %q has no column %q", rel.Name(), col)
	}
	if c.Kind() != storage.KindUint32 && c.Kind() != storage.KindString {
		return nil, fmt.Errorf("av: column %q has kind %s; AV keys must be uint32 or dictionary codes", col, c.Kind())
	}
	return c.Uint32s(), nil
}

// relationBytes estimates the memory footprint of a relation.
func relationBytes(r *storage.Relation) int64 {
	var total int64
	for _, c := range r.Columns() {
		switch c.Kind() {
		case storage.KindUint32, storage.KindString:
			total += int64(c.Len()) * 4
		default:
			total += int64(c.Len()) * 8
		}
	}
	return total
}
