package cost

import (
	"dqo/internal/physical"
	"dqo/internal/physio"
)

// Working-memory footprint estimators, in bytes. They mirror the runtime
// accounting of internal/physical's kernels (the resv charges): hash tables
// by directory-plus-arena size, sorts by permutation scratch, SPH kernels by
// domain-width state arrays. Each returns the kernel's *transient* working
// set — beyond the materialised input and the emitted output, which the
// optimiser charges separately per plan node. A mode with a MemBudget
// compares total plan footprints against it to prune alternatives that
// cannot fit; the runtime govern.Budget is the enforcement backstop.

const (
	// hashEntryBytes is one chained-table arena entry (key, next link,
	// aggregate state) plus its share of the bucket directory.
	hashEntryBytes = 48
	// sphStateBytes is one slot of an SPH state array (aggregate state).
	sphStateBytes = 32
	// pairBytes is one (left, right) row-index pair of a join result.
	pairBytes = 8
	// sortScratchBytes is the per-row permutation scratch of a sort.
	sortScratchBytes = 8
	// groupDirBytes is one entry of the sorted group directory the
	// OG/SOG/BSG kernels accumulate (4-byte key + 32-byte agg state),
	// matching the kernels' runtime resv charges.
	groupDirBytes = 36
)

// MemSort estimates the scratch bytes of a sort enforcer over rows rows.
// The parallel variant doubles it: per-worker sorted runs plus the k-way
// merge's swap buffer live at once.
func MemSort(rows float64, parallel bool) float64 {
	per := float64(sortScratchBytes)
	if parallel {
		per *= 2
	}
	return per * rows
}

// MemGroup estimates the transient working set of a grouping choice over
// rows input rows yielding groups groups.
func MemGroup(c physio.GroupChoice, rows, groups float64) float64 {
	switch c.Kind {
	case physical.HG:
		tables := 1.0
		if p := c.Opt.Parallel; p > 1 {
			// Per-worker partial tables plus the merged result coexist.
			tables = float64(p) + 1
		}
		return tables * groups * hashEntryBytes
	case physical.SPHG:
		// Dense domain: width ~ distinct keys; parallel loads keep one state
		// array per worker before the merge.
		lanes := 1.0
		if p := c.Opt.Parallel; p > 1 {
			lanes = float64(p)
		}
		return (lanes + 1) * groups * sphStateBytes
	case physical.SOG:
		return MemSort(rows, c.Opt.Parallel > 1) + groups*groupDirBytes
	case physical.OG, physical.BSG:
		// Streaming, but both accumulate the sorted group directory before
		// the output columns are materialised.
		return groups * groupDirBytes
	default:
		return 0
	}
}

// MemJoin estimates the transient working set of a join choice: build rows
// on the build side, probe on the probe side, keyDistinct distinct build
// keys, out emitted pairs.
func MemJoin(c physio.JoinChoice, build, probe, keyDistinct, out float64) float64 {
	switch c.Kind {
	case physical.HJ:
		return build*16 + out*pairBytes // bounds hashtable.Multi: directory (<= 2 slots/row) + (key, row) arena
	case physical.SPHJ:
		return keyDistinct*4 + build*4 + out*pairBytes // hashtable.SPH: directory + rows
	case physical.OJ:
		return out * pairBytes
	case physical.SOJ:
		per := float64(sortScratchBytes)
		if c.Opt.Parallel > 1 {
			per += 4
		}
		return per*(build+probe) + out*pairBytes
	case physical.BSJ:
		return build*8 + out*pairBytes // sorted (key, row) copy of the build side
	default:
		return 0
	}
}
