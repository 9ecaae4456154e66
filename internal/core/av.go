package core

import (
	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/storage"
)

// This file defines the optimiser-side interfaces for Algorithmic Views
// (paper Section 3). The AV implementations live in internal/av; core only
// knows the two ways a materialised AV can enter a plan:
//
//  1. as an alternative access path (a sorted projection of a base table —
//     the plan starts from different physical properties at no extra cost),
//  2. as a prebuilt join index (the build phase of a hash/SPH join has been
//     paid offline, so only the probe side is charged at query time).
//
// Plan-level AVs (cached optimisation results, partial AVs that pin an
// algorithm family offline) wrap Optimize from the outside and need no
// hooks here.

// ScanVariant is an alternative materialisation of a base table provided by
// an AV catalog. Its relation must be row-permutation-equivalent to the
// base table (same columns, same multiset of rows).
type ScanVariant struct {
	Label string // e.g. "av:sorted(R.ID)"
	Rel   *storage.Relation
}

// ScanProvider supplies alternative access paths per table.
type ScanProvider interface {
	// ScanVariants returns the materialised variants of table, if any.
	ScanVariants(table string) []ScanVariant
}

// PrebuiltIndex is a materialised build side of a join: probing it yields
// the base-table row ids holding the key.
type PrebuiltIndex interface {
	// Serve hands out the table itself for one join that probes it with
	// probeRows keys — the concrete table, so that the probe finds every fast
	// path it offers. The table is shared and never written.
	Serve(probeRows int) physical.RowIndex
	// Label describes the index, e.g. "av:sph(R.ID)".
	Label() string
	// SPH reports whether the index is a static-perfect-hash directory
	// (costed like SPHJ) rather than a hash index (costed like HJ).
	SPH() bool
	// Hash is the function a hash index hashes with.
	Hash() hashtable.Func
}

// IndexProvider supplies prebuilt join indexes per (table, column).
type IndexProvider interface {
	// Index returns the prebuilt index on table.column, if materialised.
	Index(table, column string) (PrebuiltIndex, bool)
}
