// Package faultinject provides named failure points for robustness tests.
//
// Production builds (no build tag) compile Fire to a constant nil return;
// the `faultinject` build tag swaps in an active registry where tests arm
// points with panics, errors, or delays:
//
//	go test -race -tags faultinject ./...
//
// Each call site names its point from the Points registry below; tests use
// Set/Reset to arm them and Summary to report which points actually fired.
package faultinject

// Registered failure-point names. Call sites use these constants; the
// active-build Summary reports hit counts per point so CI can verify
// coverage.
const (
	PointExecRunNext    = "exec.run.next"       // each batch pulled by the drive loop
	PointExecDrainBatch = "exec.drain.batch"    // each batch drained into a pipeline breaker
	PointExecBreaker    = "exec.breaker"        // before a breaker's whole-relation kernel runs
	PointExecPipeMorsel = "exec.pipe.morsel"    // each morsel claimed by a Pipe worker
	PointStorageConcat  = "storage.concat"      // relation chunk concatenation
	PointHashtableGrow  = "hashtable.grow"      // hash-table growth (the grouping table)
	PointSortxMerge     = "sortx.merge"         // each parallel-sort merge pass
	PointPhysicalBuild  = "physical.join.build" // before an HJ or SPHJ builds its table
	PointReplanSplice   = "core.replan.splice"  // before a re-planned suffix is spliced in
	PointSpillWrite     = "spill.write"         // before each spill frame hits disk (disk-full, short write)
	PointSpillRead      = "spill.read"          // before each spill frame is read back (corrupt frame)
	PointSpillCleanup   = "spill.cleanup"       // before spill temp files are removed
)

// Points lists every registered failure point, for coverage reporting.
var Points = []string{
	PointExecRunNext,
	PointExecDrainBatch,
	PointExecBreaker,
	PointExecPipeMorsel,
	PointStorageConcat,
	PointHashtableGrow,
	PointSortxMerge,
	PointPhysicalBuild,
	PointReplanSplice,
	PointSpillWrite,
	PointSpillRead,
	PointSpillCleanup,
}
