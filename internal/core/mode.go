// Package core implements the paper's contribution: property-tracking
// dynamic-programming query optimisation at two granularities — Shallow
// Query Optimisation (SQO), which enumerates opaque physical operators and
// tracks only sortedness, and Deep Query Optimisation (DQO), which unnests
// operators into their sub-components (internal/physio) and tracks the full
// property vector of Section 2.2, in particular key density.
package core

import (
	"runtime"

	"dqo/internal/cost"
	"dqo/internal/physio"
)

// Mode configures an optimisation run.
type Mode struct {
	// Name is used in EXPLAIN output ("sqo", "dqo", or custom).
	Name string
	// Depth selects the enumeration granularity (physio.Shallow: one opaque
	// choice per algorithm family; physio.Deep: the molecule space). Deep
	// enumeration also makes key density a plan property. This is the exact
	// delta of the paper's Figure 5 experiment: "While SQO only considers
	// data sortedness as in traditional dynamic programming, DQO also
	// considers ... the density of the grouping keys."
	Depth physio.Depth
	// Greedy selects the fast planning tier: instead of dynamic programming
	// over the full (deep) choice space, the optimiser walks the logical
	// tree once, ordering join build/probe roles by visible selectivity
	// (literal predicates, cracked-index ranges, AV availability) and
	// picking each granule with a single cost-model probe per candidate. It
	// early-exits the probing on provably-empty intermediates. Planning
	// drops from exponential in the plan shape to linear; plan quality
	// depends on selectivity being visible, per the greedy-joins design.
	Greedy bool
	// Beam, when > 0, caps the DP table to the Beam cheapest
	// property-distinct partial plans per site, turning Deep-mode planning
	// cost from exponential to tunable. 0 leaves enumeration exact —
	// byte-identical to planning without the knob.
	Beam int
	// DOP is the degree of parallelism offered to the enumeration: deep
	// modes with DOP > 1 also enumerate parallel variants of the
	// DOP-invariant kernels, priced by the model's Parallel term, so
	// serial-vs-parallel is decided per granule rather than globally.
	// DOP <= 1 enumerates serial plans only.
	DOP int
	// TrackProbeOrder lets the optimiser know that probe-major joins
	// (HJ/SPHJ/BSJ) emit pairs in probe order, so a sorted probe input
	// yields sorted output. Classical shallow optimisation assumes hash
	// joins destroy order — seeing otherwise requires looking below the
	// operator boundary at the emission loop, so this is a deep-only
	// property.
	TrackProbeOrder bool
	// Model is the cost model to minimise.
	Model cost.Model
	// MemBudget, when > 0, makes the optimiser prune alternatives whose
	// estimated peak working memory (Plan.Mem) exceeds it — hash aggregation
	// degrades to sort-based, parallel variants with per-worker state to
	// serial. If every alternative at a site exceeds the budget, the single
	// smallest survives and the runtime govern.Budget enforces the limit.
	// 0 leaves enumeration exactly as without the budget dimension.
	MemBudget int64
	// Spill, when true alongside a MemBudget, replaces the prune-to-abort
	// fallback: when every alternative at a breaker site exceeds the budget,
	// the optimiser enumerates a disk-backed spill twin (external merge
	// sort, grace hash join, spilling hash aggregation) of a
	// spill-compatible variant — among those whose inputs fit the budget if
	// any do, the cheapest — instead of keeping a plan the runtime budget
	// will abort. Spill twins are priced by Model.Spill, which always
	// exceeds the in-memory cost — any alternative that fits still wins, so
	// plans below the budget are byte-identical with the flag on or off.
	Spill bool
	// Scans optionally supplies Algorithmic-View access paths (sorted
	// projections) per table.
	Scans ScanProvider
	// Indexes optionally supplies prebuilt join indexes (hash / SPH
	// directory AVs) per table and column.
	Indexes IndexProvider
	// CrackedIdx optionally supplies adaptive (cracked) indexes used to
	// answer range filters over base scans.
	CrackedIdx RangeProvider
}

// dop returns the degree of parallelism offered to deep enumeration; shallow
// modes and modes with DOP <= 1 enumerate serial plans only.
func (m Mode) dop() int {
	if m.Depth != physio.Deep || m.DOP <= 1 {
		return 1
	}
	return m.DOP
}

// WithAVs returns a copy of the mode with the given AV providers installed
// (either may be nil).
func (m Mode) WithAVs(scans ScanProvider, indexes IndexProvider) Mode {
	m.Scans = scans
	m.Indexes = indexes
	return m
}

// SQO returns the shallow baseline configuration with the paper's Table 2
// cost model.
func SQO() Mode {
	return Mode{Name: "sqo", Depth: physio.Shallow, Model: cost.Paper{}}
}

// DQO returns the deep configuration with the paper's Table 2 cost model.
// The Table 2 model is blind to parallelism (Parallel returns its input), so
// parallel variants tie with their serial twins and ties resolve serial —
// DQO's plans are unchanged by the DOP dimension.
func DQO() Mode {
	return Mode{Name: "dqo", Depth: physio.Deep, TrackProbeOrder: true,
		DOP: runtime.GOMAXPROCS(0), Model: cost.Paper{}}
}

// calibrated is the default-coefficient calibrated model every mode that
// uses it shares. A cost model is read-only once built (measured variants
// are built by cost.Measure from their own copy), so a mode costs no
// allocation to make.
var calibrated = cost.NewCalibrated()

// DQOCalibrated returns the deep configuration with the molecule-aware
// calibrated cost model — the setting in which deep enumeration can pay off
// below the algorithm-family level, including the serial-vs-parallel choice.
func DQOCalibrated() Mode {
	return Mode{Name: "dqo-calibrated", Depth: physio.Deep, TrackProbeOrder: true,
		DOP: runtime.GOMAXPROCS(0), Model: calibrated}
}

// Greedy returns the fast planning tier: deep granule vocabulary and the
// calibrated model, but one greedy pass instead of dynamic programming —
// constant cost probes per operator, ordered by visible selectivity.
func Greedy() Mode {
	return Mode{Name: "greedy", Depth: physio.Deep, Greedy: true, TrackProbeOrder: true,
		DOP: runtime.GOMAXPROCS(0), Model: calibrated}
}

// WithBeam returns a copy of the mode with the DP table capped at the k
// cheapest property-distinct partial plans per site (0 = exact enumeration).
func (m Mode) WithBeam(k int) Mode {
	m.Beam = k
	return m
}
