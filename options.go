package dqo

import (
	"time"

	"dqo/internal/core"
	"dqo/internal/expr"
	"dqo/internal/obs"
)

// QueryOption tunes optimisation and execution of one query; pass options
// to DB.Query (and, via ExplainWith, to the EXPLAIN ANALYZE execution).
type QueryOption func(*queryConfig)

// queryConfig is the resolved option set of one query.
type queryConfig struct {
	workers    int
	morsel     int
	memLimit   int64
	beam       int
	reopt      float64 // misestimation factor triggering mid-query re-planning (0 = off)
	timeout    time.Duration
	tracer     obs.Tracer
	tracerSet  bool   // distinguishes WithTracer(nil) from "use the DB tracer"
	spillDir   string // spill-to-disk parent directory ("" = spilling off)
	spillLimit int64  // cap on live spill bytes (<= 0 = unlimited)

	// Prepared-statement path: compile takes the statement's parsed and
	// bound form from prepared and substitutes args (one literal per
	// parameter) into it, and routes the plan through the template cache even
	// when the DB-level cache is off — a prepared statement's whole point is
	// planning once per shape.
	prepared *Stmt
	args     []expr.Expr
}

func resolveOptions(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithWorkers bounds the query's worker pool AND the degree of parallelism
// the optimiser enumerates plans at; <= 0 selects GOMAXPROCS. Workers=1
// plans and executes fully serially.
func WithWorkers(n int) QueryOption {
	return func(c *queryConfig) { c.workers = n }
}

// WithMorselSize sets the execution batch row count; <= 0 selects
// the executor default (4096 rows).
func WithMorselSize(rows int) QueryOption {
	return func(c *queryConfig) { c.morsel = rows }
}

// WithMemoryLimit caps the query's working memory in bytes. The optimiser
// prunes plan alternatives whose estimated footprint exceeds the limit
// (hash aggregation degrades to sort-based, parallel kernels to serial),
// and at run time materialising operators reserve against a budget that
// fails the query with ErrMemoryBudgetExceeded rather than allocating past
// the limit. <= 0 means unlimited — plans are byte-identical to a query
// without the option.
func WithMemoryLimit(bytes int64) QueryOption {
	return func(c *queryConfig) { c.memLimit = bytes }
}

// WithSpillDir arms spill-to-disk execution for queries that outgrow their
// WithMemoryLimit budget: instead of pruning to a plan the runtime budget
// aborts, the optimiser enumerates disk-backed twins of the breaker kernels
// (external merge sort, grace hash join, spilling hash aggregation) whose
// run files live in a temp directory created under dir ("" falls back to
// the OS temp directory at query time via WithSpillDir(os.TempDir()) —
// passing the empty string leaves spilling off). Results are byte-identical
// to the unlimited in-memory run; any plan that fits the budget is chosen
// exactly as without the option. The directory and every run file are
// removed when the query ends, however it ends.
func WithSpillDir(dir string) QueryOption {
	return func(c *queryConfig) { c.spillDir = dir }
}

// WithSpillLimit caps the query's live spill-file bytes on disk; past the
// cap, spill writes fail the query with ErrSpillLimitExceeded. <= 0 is
// unlimited. It has no effect unless WithSpillDir armed spilling.
func WithSpillLimit(bytes int64) QueryOption {
	return func(c *queryConfig) { c.spillLimit = bytes }
}

// WithBeam caps the optimiser's DP table at the k cheapest
// property-distinct partial plans per site — the beam-capped Deep planning
// tier. Enumeration cost becomes tunable instead of exponential in the plan
// shape; a too-narrow beam can prune the partial plan a later operator
// would have exploited (an interesting order, a dense domain), trading plan
// quality for planning time. <= 0 leaves enumeration exact: plans are
// byte-identical to a query without the option. The knob applies to the DP
// tiers; ModeGreedy does not enumerate and ignores it.
func WithBeam(k int) QueryOption {
	return func(c *queryConfig) { c.beam = k }
}

// WithReoptimize enables mid-query re-planning at pipeline-breaker
// boundaries: when a breaker (hash build, sort, aggregation input)
// materialises its input and the actual cardinality is at least factor× off
// the optimiser's estimate in either direction, the remaining plan suffix is
// re-enumerated with the true cardinality under the active planning tier and
// spliced into the running query. Switches are recorded on Result.Replans,
// counted per operator in Stats, and marked "[replanned]" in EXPLAIN
// ANALYZE. Results are bit-identical to running without the option (row
// order of unordered queries aside, which SQL leaves unspecified). factor
// <= 1 selects the default threshold of 10×.
func WithReoptimize(factor float64) QueryOption {
	return func(c *queryConfig) {
		if factor <= 1 {
			factor = core.DefaultReoptThreshold
		}
		c.reopt = factor
	}
}

// WithTimeout bounds the query's wall-clock time; on expiry the query
// aborts at the next morsel boundary with ErrTimeout. <= 0 means no
// deadline.
func WithTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.timeout = d }
}

// WithTracer routes this query's trace to t instead of the DB's tracer;
// WithTracer(nil) disables tracing for this query only.
func WithTracer(t Tracer) QueryOption {
	return func(c *queryConfig) { c.tracer = t; c.tracerSet = true }
}

// ExplainOption selects what DB.Explain renders. Options are additive:
// Explain(mode, q, ExplainGranules(), ExplainAnalyze()) emits the plan,
// the granule trees, and the measured-vs-estimated table.
type ExplainOption func(*explainConfig)

type explainConfig struct {
	granules  bool
	unnesting bool
	analyze   bool
	qopts     []QueryOption
}

// ExplainPlan requests the default verbosity — the chosen physical plan
// with estimated costs, cardinalities, and property vectors. It is implied;
// the option exists so call sites can state the default explicitly.
func ExplainPlan() ExplainOption {
	return func(c *explainConfig) {}
}

// ExplainGranules adds the granule tree (the paper's Figure 3 view) of
// every chosen join and grouping implementation.
func ExplainGranules() ExplainOption {
	return func(c *explainConfig) { c.granules = true }
}

// ExplainUnnesting adds the step-by-step unnesting chain from each logical
// operator to its fully resolved deep implementation, with the physicality
// measure at every step.
func ExplainUnnesting() ExplainOption {
	return func(c *explainConfig) { c.unnesting = true }
}

// ExplainAnalyze executes the query and appends a per-operator table of the
// optimiser's estimates next to the executor's measurements (rows, self
// time, peak bytes) with misestimation factors — the calibration-gap view
// of one query.
func ExplainAnalyze() ExplainOption {
	return func(c *explainConfig) { c.analyze = true }
}

// ExplainWith forwards query options (workers, morsel size, memory limit,
// timeout, tracer) to the execution run behind ExplainAnalyze. It has no
// effect without ExplainAnalyze.
func ExplainWith(opts ...QueryOption) ExplainOption {
	return func(c *explainConfig) { c.qopts = append(c.qopts, opts...) }
}

// AVKind identifies a kind of Algorithmic View for DB.MaterializeAV.
type AVKind uint8

// Algorithmic View kinds.
const (
	// AVSorted is a sorted projection of one column (prepaid sort).
	AVSorted AVKind = iota
	// AVHashIndex is a prebuilt hash-join build side.
	AVHashIndex
	// AVSPH is a prebuilt static-perfect-hash directory over a dense key.
	AVSPH
	// AVCracked is an adaptive index that partitions itself along query
	// bounds — indexing work happens at query time, driven by the workload.
	AVCracked
)

// String returns the kind name.
func (k AVKind) String() string {
	switch k {
	case AVSorted:
		return "sorted"
	case AVHashIndex:
		return "hash-index"
	case AVSPH:
		return "sph"
	case AVCracked:
		return "cracked"
	default:
		return "unknown"
	}
}
