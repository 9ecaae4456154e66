package dqo

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dqo/internal/core"
	"dqo/internal/exec"
	"dqo/internal/storage"
)

// Result is the output of a query: a result relation, the plan that
// produced it, and the per-operator execution profile. When a query fails
// mid-pipeline, Query returns a partial Result alongside the error: rel is
// nil, Err reports the failure, and Stats carries whatever the operators
// counted before the abort — the post-mortem view of how far the query got.
type Result struct {
	rel     *storage.Relation
	plan    *core.Result
	snap    exec.Snapshot // the operators' counters; see profile
	err     error
	trace   *lazyTrace // nil when tracing was off for this query
	phases  phaseTimes
	memPeak int64 // budget high-water mark (0 when no budget was installed)
	replans []ReplanEvent

	rendered     exec.Profile // snap with its labels rendered, on first read
	renderedOnce sync.Once

	cursor int // Next/Scan row cursor: rows consumed so far
}

// profile returns the per-operator execution profile. Its labels are
// rendered the first time anything asks for them, not per execution.
func (r *Result) profile() exec.Profile {
	r.renderedOnce.Do(func() { r.rendered = r.snap.Profile() })
	return r.rendered
}

// ReplanEvent records one mid-query re-planning decision taken at a
// pipeline-breaker boundary under WithReoptimize: which operator's estimate
// was off, by how much, and what was spliced in instead.
type ReplanEvent = core.ReplanEvent

// Replans returns the mid-query re-planning decisions taken during
// execution, in splice order. It is empty unless the query ran with
// WithReoptimize and at least one breaker's materialised input was far
// enough off-estimate to trigger a suffix re-plan.
func (r *Result) Replans() []ReplanEvent { return r.replans }

// Err reports the execution error of a partial result (nil for a
// successful query).
func (r *Result) Err() error { return r.err }

// Trace returns the query's span tree — the same trace delivered to the
// DB's tracer — or nil when tracing was disabled for this query.
func (r *Result) Trace() *QueryTrace {
	if r.trace == nil {
		return nil
	}
	return r.trace.Trace()
}

// PeakBytes reports the query's measured memory high-water mark: the
// budget's peak when a memory limit was set, else the largest per-operator
// peak in the execution profile.
func (r *Result) PeakBytes() int64 { return resultPeakBytes(r) }

// SpilledBytes reports the total run-file bytes the query wrote to disk
// across all operators — 0 when nothing spilled, including spill-lowered
// plans whose input turned out to fit in memory.
func (r *Result) SpilledBytes() int64 {
	var n int64
	for _, s := range r.snap.Counters() {
		n += s.SpillBytes
	}
	return n
}

// OpStat is one operator's measured execution profile: what actually
// happened at run time, as opposed to the optimiser's estimates. Depth is
// the operator's depth in the executed plan tree (0 = root).
type OpStat struct {
	Label     string
	Depth     int
	RowsIn    int64         // rows pulled from inputs
	RowsOut   int64         // rows emitted
	Batches   int64         // morsel batches emitted
	Wall      time.Duration // time in the operator, inclusive of inputs
	Self      time.Duration // Wall minus the inputs' Wall
	PeakBytes int64         // high-water estimate of bytes held
	DOP       int64         // effective degree of parallelism (1 = serial)
	Replans   int64         // mid-query re-planning splices taken at this operator

	// Spill accounting, nonzero only for operators that actually touched
	// disk (a spill-lowered breaker whose input fit in memory spills
	// nothing and reports zeros).
	SpillBytes  int64 // run-file bytes written by this operator
	SpillParts  int64 // run files / partitions written
	SpillPasses int64 // extra disk passes (merge rounds, re-partitionings)
}

// Stats returns the per-operator execution profile in pre-order (root
// operator first), measured by the morsel executor. It is the feedback
// half of the optimise/execute loop: estimated cost and cardinality come
// from PlanExplain, measured rows and time come from here.
func (r *Result) Stats() []OpStat {
	prof := r.profile()
	out := make([]OpStat, len(prof))
	for i, s := range prof {
		out[i] = OpStat(s)
	}
	return out
}

// StatsString renders the execution profile as an aligned table.
func (r *Result) StatsString() string { return r.profile().String() }

// NumRows returns the number of result rows (0 for a failed query).
func (r *Result) NumRows() int {
	if r.rel == nil {
		return 0
	}
	return r.rel.NumRows()
}

// Columns returns the result column names in order (nil for a failed query).
func (r *Result) Columns() []string {
	if r.rel == nil {
		return nil
	}
	return r.rel.ColumnNames()
}

// Column is a typed, zero-copy view of one result column. Exactly one of the
// value slices is set, by the column's type; a string column is dictionary
// coded, row i holding Dict[Codes[i]]. The slices are the result's own
// storage: read them, do not write them.
type Column struct {
	Name     string
	Uint32s  []uint32
	Uint64s  []uint64
	Int64s   []int64
	Float64s []float64
	Codes    []uint32
	Dict     []string
}

// ColumnAt returns the i-th result column (in Columns order) as its typed
// slice — the column-at-a-time surface over a result, which costs nothing
// per row and is what the serving layer's encoder reads. It panics when i
// is out of range; a failed query has no columns.
func (r *Result) ColumnAt(i int) Column {
	if r.rel == nil {
		panic(fmt.Sprintf("dqo: ColumnAt(%d) on a failed query", i))
	}
	c := r.rel.Columns()[i]
	out := Column{Name: c.Name()}
	switch c.Kind() {
	case storage.KindUint32:
		out.Uint32s = c.Uint32s()
	case storage.KindUint64:
		out.Uint64s = c.Uint64s()
	case storage.KindInt64:
		out.Int64s = c.Int64s()
	case storage.KindFloat64:
		out.Float64s = c.Float64s()
	case storage.KindString:
		out.Codes, out.Dict = c.Uint32s(), c.Dict().Strings()
	}
	return out
}

// Next advances the result's row cursor, returning false once every row has
// been consumed (and always for a failed query). Together with Columns and
// Scan it is the row-at-a-time surface over a result, for consumers that
// want rows without materialising a row-major copy (an encoder that wants
// whole columns reads them through ColumnAt instead):
//
//	for res.Next() {
//	    var a uint32
//	    var n int64
//	    if err := res.Scan(&a, &n); err != nil { ... }
//	}
//
// The cursor starts before the first row and is single-use; it is not safe
// for concurrent use with itself (results are otherwise read-only).
func (r *Result) Next() bool {
	if r.rel == nil || r.cursor >= r.rel.NumRows() {
		return false
	}
	r.cursor++
	return true
}

// Scan copies the current row (positioned by Next) into dest, one pointer
// per result column. Each dest must be a pointer matching the column's
// type — *uint32, *int64, *float64, or *string — or *any, which receives
// uint32/int64/float64/string by column kind.
func (r *Result) Scan(dest ...any) error {
	if r.rel == nil {
		return fmt.Errorf("dqo: Scan on a failed query: %v", r.err)
	}
	if r.cursor == 0 || r.cursor > r.rel.NumRows() {
		return fmt.Errorf("dqo: Scan without a preceding successful Next")
	}
	if len(dest) != r.rel.NumCols() {
		return fmt.Errorf("dqo: Scan wants %d destinations, got %d", r.rel.NumCols(), len(dest))
	}
	row := r.cursor - 1
	for j, c := range r.rel.Columns() {
		if err := scanCell(c, row, dest[j]); err != nil {
			return fmt.Errorf("dqo: Scan column %q: %w", c.Name(), err)
		}
	}
	return nil
}

// scanCell copies one cell into a destination pointer.
func scanCell(c *storage.Column, row int, dest any) error {
	v := c.ValueAt(row)
	switch d := dest.(type) {
	case *uint32:
		if v.Kind != storage.KindUint32 {
			return fmt.Errorf("column is %s, not uint32", v.Kind)
		}
		*d = uint32(v.U)
	case *uint64:
		if v.Kind != storage.KindUint64 && v.Kind != storage.KindUint32 {
			return fmt.Errorf("column is %s, not uint64", v.Kind)
		}
		*d = v.U
	case *int64:
		if v.Kind != storage.KindInt64 {
			return fmt.Errorf("column is %s, not int64", v.Kind)
		}
		*d = int64(v.U)
	case *float64:
		if v.Kind != storage.KindFloat64 {
			return fmt.Errorf("column is %s, not float64", v.Kind)
		}
		*d = v.F
	case *string:
		*d = v.String()
	case *any:
		switch v.Kind {
		case storage.KindUint32:
			*d = uint32(v.U)
		case storage.KindUint64:
			*d = v.U
		case storage.KindInt64:
			*d = int64(v.U)
		case storage.KindFloat64:
			*d = v.F
		case storage.KindString:
			*d = v.S
		default:
			return fmt.Errorf("column has invalid kind")
		}
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
	return nil
}

// EstimatedCost returns the optimiser's cost estimate for the executed plan.
func (r *Result) EstimatedCost() float64 { return r.plan.Best.Cost }

// PlanExplain renders the executed plan.
func (r *Result) PlanExplain() string { return r.plan.Best.Explain() }

// column fetches a result column, failing cleanly on a partial result.
func (r *Result) column(name string) (*storage.Column, error) {
	if r.rel == nil {
		return nil, fmt.Errorf("dqo: no result relation (query failed: %v)", r.err)
	}
	c, ok := r.rel.Column(name)
	if !ok {
		return nil, fmt.Errorf("dqo: result has no column %q", name)
	}
	return c, nil
}

// Uint32Column returns a uint32 result column by name.
func (r *Result) Uint32Column(name string) ([]uint32, error) {
	c, err := r.column(name)
	if err != nil {
		return nil, err
	}
	if c.Kind() != storage.KindUint32 {
		return nil, fmt.Errorf("dqo: column %q is %s, not uint32", name, c.Kind())
	}
	return c.Uint32s(), nil
}

// Int64Column returns an int64 result column by name.
func (r *Result) Int64Column(name string) ([]int64, error) {
	c, err := r.column(name)
	if err != nil {
		return nil, err
	}
	if c.Kind() != storage.KindInt64 {
		return nil, fmt.Errorf("dqo: column %q is %s, not int64", name, c.Kind())
	}
	return c.Int64s(), nil
}

// Float64Column returns a float64 result column by name.
func (r *Result) Float64Column(name string) ([]float64, error) {
	c, err := r.column(name)
	if err != nil {
		return nil, err
	}
	if c.Kind() != storage.KindFloat64 {
		return nil, fmt.Errorf("dqo: column %q is %s, not float64", name, c.Kind())
	}
	return c.Float64s(), nil
}

// Row returns row i rendered as strings, one per column (nil for a failed
// query).
func (r *Result) Row(i int) []string {
	if r.rel == nil {
		return nil
	}
	vals := r.rel.Row(i)
	out := make([]string, len(vals))
	for j, v := range vals {
		out[j] = v.String()
	}
	return out
}

// String renders the result as an aligned text table (all rows).
func (r *Result) String() string {
	if r.rel == nil {
		return fmt.Sprintf("(query failed: %v)\n", r.err)
	}
	var b strings.Builder
	widths := make([]int, r.rel.NumCols())
	names := r.rel.ColumnNames()
	for j, n := range names {
		widths[j] = len(n)
	}
	rows := make([][]string, r.NumRows())
	for i := 0; i < r.NumRows(); i++ {
		rows[i] = r.Row(i)
		for j, v := range rows[i] {
			if len(v) > widths[j] {
				widths[j] = len(v)
			}
		}
	}
	writeRow := func(vals []string) {
		for j, v := range vals {
			if j > 0 {
				b.WriteString("  ")
			}
			if j == len(vals)-1 {
				b.WriteString(v) // no trailing padding
				continue
			}
			fmt.Fprintf(&b, "%-*s", widths[j], v)
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	for _, row := range rows {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", r.NumRows())
	return b.String()
}
