// Package cost implements the cost models the optimisers minimise.
//
// Paper is the verbatim Table 2 model of the paper: abstract per-element
// costs per algorithm family (it cannot see below the family level, which is
// all the paper's Figure 5 experiment needs).
//
// Calibrated is a molecule-aware model: nanosecond-scale per-row
// coefficients that differ by hash function, sort algorithm, and loop
// parallelism — the model a deep optimiser needs to discriminate choices the
// paper model considers identical.
package cost

import (
	"math"

	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/sortx"
)

// Model estimates costs of physical plan steps. Group and Join receive the
// fully resolved choice (family plus molecules), the input cardinalities,
// and the number of distinct keys (BSG/BSJ cost depends on it).
type Model interface {
	// Name identifies the model in EXPLAIN output.
	Name() string
	// Scan returns the cost of producing rows from a base table.
	Scan(rows float64) float64
	// Filter returns the cost of filtering rows input rows.
	Filter(rows float64) float64
	// SortBy returns the cost of the sort enforcer on rows rows.
	SortBy(rows float64, kind sortx.Kind) float64
	// Group returns the cost of grouping rows input rows into groups groups.
	Group(c physio.GroupChoice, rows, groups float64) float64
	// Join returns the cost of joining build rows (with keyDistinct distinct
	// keys) against probe rows.
	Join(c physio.JoinChoice, build, probe, keyDistinct float64) float64
	// Parallel returns the cost of running work costing c serially across
	// dop workers, including fork/merge overhead. Models that cannot see
	// parallelism return c unchanged: the optimiser offers no parallel
	// variant under Paper, and under any other such model a parallel variant
	// ties with its serial one and the tie resolves to the first-enumerated
	// (serial) variant, so those models' plans do not depend on DOP.
	Parallel(c float64, dop int) float64
	// ScanCompressed returns the cost of producing rows from a base table
	// stored with a segment encoding (decode-once + stream). Models
	// blind to storage format (Paper) price it like Scan, so compressed
	// granule twins tie and lose to the first-enumerated plain plan.
	ScanCompressed(rows float64) float64
	// FilterCompressed returns the cost of a range/equality filter evaluated
	// directly on a compressed column: rows input rows, work the encoded
	// units actually compared (runs or packed values in segments the zone
	// maps could not answer), and out the qualifying rows gathered. work and
	// out come from the segment zone metadata at plan time, so the model sees
	// exactly how much of the payload the predicate must touch.
	FilterCompressed(rows, work, out float64) float64
	// Spill returns the cost of running work costing c in-memory as the
	// spilling twin over rows input rows with the given number of disk
	// passes (a pass writes and reads every row once). Spill twins are only
	// enumerated when no in-memory variant fits the memory budget, so this
	// prices degradation, not a competitive alternative — it must exceed c
	// whenever rows > 0 so an in-memory plan that fits always wins.
	Spill(c, rows, passes float64) float64
}

func log2(x float64) float64 {
	if x < 2 {
		return 0
	}
	return math.Log2(x)
}

// Paper is the Table 2 cost model, verbatim:
//
//	HG(R)   = 4·|R|            HJ(R,S)   = 4·(|R|+|S|)
//	OG(R)   = |R|              OJ(R,S)   = |R|+|S|
//	SOG(R)  = |R|·log2|R|+|R|  SOJ(R,S)  = |R|·log2|R|+|S|·log2|S|+|R|+|S|
//	SPHG(R) = |R|              SPHJ(R,S) = |R|+|S|
//	BSG(R)  = |R|·log2(G)      BSJ(R,S)  = (|R|+|S|)·log2(G)
//
// The sort enforcer costs |R|·log2|R| — exactly SOG minus OG — so an
// explicitly enforced sort followed by an order-based operator prices the
// same as the fused sort-based operator. Scans are free, as in the paper's
// hand calculation.
type Paper struct{}

// Name implements Model.
func (Paper) Name() string { return "paper" }

// Scan implements Model.
func (Paper) Scan(rows float64) float64 { return 0 }

// Parallel implements Model. The paper's Table 2 model counts abstract
// element operations and is blind to multicore, so work costs the same at
// any degree of parallelism.
func (Paper) Parallel(c float64, dop int) float64 { return c }

// Filter implements Model.
func (Paper) Filter(rows float64) float64 { return rows }

// ScanCompressed implements Model: the paper's model counts abstract element
// operations and cannot see storage format, so compressed scans tie with
// plain ones (and ties keep the first-enumerated plain plan).
func (Paper) ScanCompressed(rows float64) float64 { return 0 }

// FilterCompressed implements Model: identical to Filter for the same
// reason — |R| comparisons regardless of representation.
func (Paper) FilterCompressed(rows, _, _ float64) float64 { return rows }

// Spill implements Model: the in-memory work plus one abstract element
// operation per row per disk pass (each pass writes and reads every row).
func (Paper) Spill(c, rows, passes float64) float64 { return c + rows*passes }

// SortBy implements Model.
func (Paper) SortBy(rows float64, _ sortx.Kind) float64 { return rows * log2(rows) }

// Group implements Model.
func (Paper) Group(c physio.GroupChoice, rows, groups float64) float64 {
	switch c.Kind {
	case physical.HG:
		return 4 * rows
	case physical.OG:
		return rows
	case physical.SOG:
		return rows*log2(rows) + rows
	case physical.SPHG:
		return rows
	case physical.BSG:
		return rows * log2(groups)
	default:
		return math.Inf(1)
	}
}

// Join implements Model.
func (Paper) Join(c physio.JoinChoice, build, probe, keyDistinct float64) float64 {
	switch c.Kind {
	case physical.HJ:
		return 4 * (build + probe)
	case physical.OJ:
		return build + probe
	case physical.SOJ:
		return build*log2(build) + probe*log2(probe) + build + probe
	case physical.SPHJ:
		return build + probe
	case physical.BSJ:
		return (build + probe) * log2(keyDistinct)
	default:
		return math.Inf(1)
	}
}

// Calibrated is a per-row nanosecond model whose coefficients discriminate
// molecule-level choices. The defaults were fitted by hand against this
// repository's own microbenchmarks on a commodity x86-64 box; Fit adjusts
// nothing automatically (measurement-driven calibration is a cmd/dqobench
// option) — the point is the *structure*: the deep optimiser can only
// exploit molecule choices if the model can tell them apart.
type Calibrated struct {
	// Hash-table insert cost per row (ns): the chained table's, for grouping
	// and join builds alike, before the hash function's.
	InsertNS float64
	// Hash function evaluation cost per row (ns).
	HashNS map[hashtable.Func]float64
	// Sort cost: per-row fixed for radix, per-row-per-log2(n) for the
	// comparison sort.
	RadixRowNS float64
	CmpRowNS   float64
	// Array/scan kernels (ns per row).
	SPHRowNS   float64
	OGRowNS    float64
	BSRowLogNS float64 // per row per log2(groups)
	ProbeNS    float64 // per probe overhead in joins
	// Parallel load: fixed fork/merge overhead (ns) and efficiency factor.
	ParallelFixedNS float64
	ParallelEff     float64
	// Cache penalty: hash inserts slow as the working set exceeds cache;
	// modelled as +CacheNS per row per log2(groups) above CacheGroups.
	CacheGroups float64
	CacheNS     float64
	// Compressed-storage kernels: one-shot sequential decode per row
	// (cheaper than the per-morsel lazy slicing a plain scan of encoded
	// storage pays), per encoded unit compared in partial segments, and per
	// qualifying row gathered from the payload.
	EncScanRowNS float64
	EncWorkNS    float64
	EncEmitNS    float64
	// Spill I/O: serialise + write + read + decode per row per disk pass.
	SpillRowNS float64
}

// NewCalibrated returns the default-coefficient calibrated model. The
// defaults were fitted against this repository's own A1-A3 ablation runs
// (cmd/dqobench -experiment ablations; see EXPERIMENTS.md): at 10 M
// unsorted sparse rows with 10 000 groups the flat-arena chained table
// inserts at ~12 ns/row, the hash-function spread is small on uniform keys,
// and LSD radix beats comparison sorting by an order of magnitude.
func NewCalibrated() *Calibrated {
	return &Calibrated{
		InsertNS: 11.0,
		HashNS: map[hashtable.Func]float64{
			hashtable.Murmur3Fin:    1.2,
			hashtable.Fibonacci:     0.7,
			hashtable.MultiplyShift: 0.8,
			hashtable.Identity:      0.5,
		},
		RadixRowNS:      4.5,
		CmpRowNS:        2.1,
		SPHRowNS:        2.4,
		OGRowNS:         1.3,
		BSRowLogNS:      0.9,
		ProbeNS:         1.2,
		ParallelFixedNS: 60000,
		ParallelEff:     0.75,
		CacheGroups:     4096,
		CacheNS:         0.5,
		EncScanRowNS:    0.15,
		EncWorkNS:       1.0,
		EncEmitNS:       2.0,
		SpillRowNS:      40.0,
	}
}

// Name implements Model.
func (*Calibrated) Name() string { return "calibrated" }

// Scan implements Model.
func (*Calibrated) Scan(rows float64) float64 { return 0.25 * rows }

// Parallel implements Model: Amdahl-style speedup with an efficiency factor
// plus a fixed fork/merge overhead, the same term SPHG's parallel load has
// always used. dop <= 1 is serial and free of overhead.
func (m *Calibrated) Parallel(c float64, dop int) float64 {
	if dop <= 1 {
		return c
	}
	return c/(float64(dop)*m.ParallelEff) + m.ParallelFixedNS
}

// Filter implements Model.
func (*Calibrated) Filter(rows float64) float64 { return 1.5 * rows }

// ScanCompressed implements Model: a compressed scan decodes each segment
// once into a streamable buffer, beating the plain scan's per-morsel view
// bookkeeping over the same encoded storage.
func (m *Calibrated) ScanCompressed(rows float64) float64 {
	return m.EncScanRowNS * rows
}

// FilterCompressed implements Model. The decoded alternative pays
// Filter(rows) = 1.5·rows; the direct kernel pays only for the encoded
// units the zone maps could not answer plus the qualifying-row gather, so
// run-heavy or zone-prunable columns undercut it and the optimiser picks
// the compressed granule exactly where the payload shape earns it.
func (m *Calibrated) FilterCompressed(rows, work, out float64) float64 {
	return m.EncWorkNS*work + m.EncEmitNS*out
}

// Spill implements Model: the in-memory kernel's work plus the frame
// serialise/write/read/decode round trip for every row on every disk pass.
func (m *Calibrated) Spill(c, rows, passes float64) float64 {
	return c + m.SpillRowNS*rows*passes
}

// SortBy implements Model.
func (m *Calibrated) SortBy(rows float64, kind sortx.Kind) float64 {
	if kind == sortx.Radix {
		return m.RadixRowNS * rows
	}
	return m.CmpRowNS * rows * log2(rows)
}

// cachePenalty models the growing per-insert cost of a hash table whose
// directory outgrows the cache hierarchy — the effect behind HG's rising
// curve in the paper's unsorted-dense plot.
func (m *Calibrated) cachePenalty(groups float64) float64 {
	if groups <= m.CacheGroups {
		return 0
	}
	return m.CacheNS * log2(groups/m.CacheGroups)
}

// Group implements Model.
func (m *Calibrated) Group(c physio.GroupChoice, rows, groups float64) float64 {
	switch c.Kind {
	case physical.HG:
		perRow := m.InsertNS + m.HashNS[c.Opt.Hash] + m.cachePenalty(groups)
		if p := c.Opt.Parallel; p > 1 {
			// Parallel partial tables, merged sequentially: one AddState per
			// group per partial table.
			return m.Parallel(perRow*rows, p) + perRow*groups*float64(p)
		}
		return perRow * rows
	case physical.SPHG:
		base := m.SPHRowNS * rows
		if p := float64(c.Opt.Parallel); p > 1 {
			return base/(p*m.ParallelEff) + m.ParallelFixedNS + m.SPHRowNS*groups
		}
		return base
	case physical.OG:
		return m.OGRowNS * rows
	case physical.SOG:
		// Parallel sort runs + merges; the OG pass stays serial.
		return m.Parallel(m.SortBy(rows, c.Opt.Sort), c.Opt.Parallel) + m.OGRowNS*rows
	case physical.BSG:
		return (m.BSRowLogNS*log2(groups) + 2) * rows
	default:
		return math.Inf(1)
	}
}

// Join implements Model.
func (m *Calibrated) Join(c physio.JoinChoice, build, probe, keyDistinct float64) float64 {
	emit := m.ProbeNS * probe
	switch c.Kind {
	case physical.HJ:
		perRow := m.InsertNS + m.HashNS[c.Opt.Hash] + m.cachePenalty(keyDistinct)
		// Radix-partitioned build and chunked probe both parallelise.
		return m.Parallel(perRow*(build+probe), c.Opt.Parallel) + emit
	case physical.SPHJ:
		// Build stays serial (chain order is the output contract); only the
		// probe side fans out.
		return m.SPHRowNS*build + m.Parallel(m.SPHRowNS*probe, c.Opt.Parallel) + emit
	case physical.OJ:
		return m.OGRowNS*(build+probe) + emit
	case physical.SOJ:
		// Both argsorts parallelise; the merge pass stays serial.
		return m.Parallel(m.SortBy(build, c.Opt.Sort)+m.SortBy(probe, c.Opt.Sort), c.Opt.Parallel) +
			m.OGRowNS*(build+probe) + emit
	case physical.BSJ:
		return m.SortBy(build, c.Opt.Sort) + (m.BSRowLogNS*log2(keyDistinct)+2)*probe + emit
	default:
		return math.Inf(1)
	}
}
