package core

import (
	"context"
	"fmt"
	"slices"

	"dqo/internal/exec"
	"dqo/internal/govern"
	"dqo/internal/physical"
	"dqo/internal/storage"
)

// This file is the plan → operator-tree compiler: it lowers an optimised
// Plan onto the unified morsel-driven execution layer (internal/exec).
// Streaming operators (scan, filter, project) become morsel-at-a-time
// operators; sorts, joins, and groupings keep their whole-relation kernel
// cores but run behind the same Open/Next/Close interface, draining their
// inputs morsel by morsel (join inputs concurrently) and emitting
// per-operator execution statistics.

// ExecOptions configures a morsel-executor run.
type ExecOptions struct {
	// MorselSize is the batch row count; <= 0 selects
	// exec.DefaultMorselSize.
	MorselSize int
	// Workers bounds the query's worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Mem is the query's memory budget; nil = unlimited. Materialising
	// operators and kernels reserve against it and fail the query with
	// qerr.ErrMemoryBudgetExceeded instead of allocating past the limit.
	Mem *govern.Budget
	// SpillDir, when non-empty, arms spill-to-disk execution: spill-lowered
	// breakers write budget-accounted run files under a temp directory
	// created beneath it (removed when the query ends, however it ends).
	// Empty leaves spilling disarmed — a plan with spill nodes then fails
	// at the first write attempt.
	SpillDir string
	// SpillLimit caps the query's live spill bytes on disk; <= 0 is
	// unlimited. Past it, writes fail with qerr.ErrSpillLimitExceeded.
	SpillLimit int64
}

// Compile lowers an optimised plan to its operator tree. The tree is
// single-use: compile a fresh one per execution.
//
// Streaming segments the optimiser marked parallel (Plan.DOP > 1 on a
// filter/project chain over a scan) lower to an exec.Pipe that fans morsels
// across the worker pool; everything else lowers to the serial operators, so
// DOP = 1 plans execute exactly as before the parallel dimension existed.
//
// Lowering also carries, top-down, the columns each node's ancestors
// reference (project lists, predicates, group key and aggregate arguments,
// sort keys, the keys of joins above), and joins and filters materialise
// only those: a join under GROUP BY R.A, COUNT(*) gathers R.A, not every
// column of both inputs, and SELECT ID FROM R WHERE A = ? gathers ID alone. This is a property of the lowering, not of the plan —
// EXPLAIN shows the same logical schema as before.
func Compile(p *Plan) (exec.Operator, error) {
	return compileNode(p, nil, nil)
}

// compileNode is the compiler body. Every breaker runs its node through
// rc.replan, which with a nil ReoptConfig (always, for a spill twin) is the
// node dispatch (Plan.run) alone. need names the columns p's ancestors
// reference; nil means all of p's output.
func compileNode(p *Plan, rc *ReoptConfig, need []string) (exec.Operator, error) {
	switch p.Op {
	case OpScan:
		if p.Enc != storage.EncNone {
			return exec.NewCompressedScan(p, p.Rel), nil
		}
		return exec.NewScan(p, p.Rel), nil
	case OpFilter:
		if p.DOP > 1 {
			if op, ok := compilePipe(p, need); ok {
				return op, nil
			}
		}
		if p.Enc != storage.EncNone {
			// The direct-on-compressed kernel answers the filter straight off
			// the encoded segments, so — like the cracked index — it subsumes
			// the scan below it.
			child := p.Children[0]
			if child.Op != OpScan {
				return nil, fmt.Errorf("core: compressed filter over %v, want Scan", child.Op)
			}
			return exec.NewCompressedFilter(p, child.Rel, p.EncCol, p.EncLo, p.EncHi), nil
		}
		if p.Crack != nil {
			// The cracked index answers the filter with base-table row
			// positions, so it subsumes the scan below it.
			child := p.Children[0]
			if child.Op != OpScan {
				return nil, fmt.Errorf("core: cracked filter over %v, want Scan", child.Op)
			}
			crack, lo, hi := p.Crack, p.CrackLo, p.CrackHi
			return exec.NewIndexScan(p, child.Rel, func() []int32 {
				return crack.Range64(lo, hi)
			}), nil
		}
		child, err := compileNode(p.Children[0], rc, withColumns(need, p.Pred.Columns(nil)...))
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(p, child, p.Pred, need), nil
	case OpProject:
		if p.DOP > 1 {
			if op, ok := compilePipe(p, need); ok {
				return op, nil
			}
		}
		child, err := compileNode(p.Children[0], rc, p.Cols)
		if err != nil {
			return nil, err
		}
		return exec.NewProject(p, child, p.Cols), nil
	case OpSort:
		child, err := compileNode(p.Children[0], rc, withColumns(need, p.SortKey))
		if err != nil {
			return nil, err
		}
		return breaker(p, rc, nil, p.DOP, child), nil
	case OpGroup:
		groupNeed := []string{p.GroupKey}
		for _, a := range p.Aggs {
			if a.Col != "" {
				groupNeed = append(groupNeed, a.Col)
			}
		}
		child, err := compileNode(p.Children[0], rc, groupNeed)
		if err != nil {
			return nil, err
		}
		return breaker(p, rc, nil, p.Group.Opt.Parallel, child), nil
	case OpJoin:
		// The output-name rule ("_r" on a clash) is decided on the inputs a
		// join actually receives, so pruning below a join whose sides share
		// a column name could change a name an ancestor uses: such a join,
		// and everything under it, keeps every column.
		cols := need
		if cols != nil && sharesColumn(p.Children[0].outputColumns(), p.Children[1].outputColumns()) {
			cols = nil
		}
		childNeed := withColumns(cols, p.LeftKey, p.RightKey)
		left, err := compileNode(p.Children[0], rc, childNeed)
		if err != nil {
			return nil, err
		}
		right, err := compileNode(p.Children[1], rc, childNeed)
		if err != nil {
			return nil, err
		}
		return breaker(p, rc, cols, p.Join.Opt.Parallel, left, right), nil
	default:
		return nil, fmt.Errorf("core: cannot compile operator %v", p.Op)
	}
}

// breaker lowers sort, grouping or join p over its compiled inputs: one
// materialising operator running the node's kernel through rc.replan. A spill
// twin adds its spill strategy and runs the kernel without rc: it neither
// re-plans nor offers its join table (Plan.offersBuild). cols restricts a
// join's output columns; dop is the kernel's planned parallelism.
func breaker(p *Plan, rc *ReoptConfig, cols []string, dop int, in ...exec.Operator) exec.Operator {
	var spill exec.SpillStrategy
	if p.Spill {
		rc, spill = nil, p.spillStrategy(cols)
	}
	var b *exec.Materialize
	b = exec.NewBreaker(p, func(ec *exec.ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
		return rc.replan(ec, ctl, p, cols, b, in...)
	}, spill, in...)
	b.SetDOP(dop)
	return b
}

// spillStrategy is how the disk-backed twin p holds its input past the spill
// grant: sorted runs for a sort, partition sets for a grouping or join. Each
// produces output byte-identical to the serial in-memory kernel.
func (p *Plan) spillStrategy(cols []string) exec.SpillStrategy {
	switch p.Op {
	case OpSort:
		return exec.SortRuns(p.SortKey, p.SortKind)
	case OpGroup:
		return exec.GroupPartitions(p.GroupKey, p.Aggs, p.Group.Opt, p.KeyDom)
	default:
		return exec.JoinPartitions(p.LeftKey, p.RightKey, p.Join.Opt, p.Swapped, p.KeyDom, cols)
	}
}

// withColumns returns need extended by cols; "all columns" (nil) stays nil.
func withColumns(need []string, cols ...string) []string {
	if need == nil {
		return nil
	}
	return append(append(make([]string, 0, len(need)+len(cols)), need...), cols...)
}

// sharesColumn reports whether two column lists have a name in common.
func sharesColumn(a, b []string) bool {
	return slices.ContainsFunc(a, func(x string) bool { return slices.Contains(b, x) })
}

// compilePipe lowers a parallel streaming segment — a filter/project chain
// the optimiser marked with DOP > 1, bottoming out at a plain scan — onto
// the morsel-parallel pipe driver. Stages run per morsel on the worker pool
// and the pipe re-emits batches in input order, so the result is identical
// to the serial chain. need names the columns p's ancestors reference, and
// each filter stage keeps only what is read above it, as compileNode's
// filters do. Returns false if the chain has an unexpected shape (e.g. a
// cracked filter); the caller then falls back to serial lowering.
func compilePipe(p *Plan, need []string) (exec.Operator, bool) {
	var chain []*Plan
	var keep [][]string // the columns chain[i]'s output keeps
	n := p
	for (n.Op == OpFilter && n.Crack == nil && n.Enc == storage.EncNone) || n.Op == OpProject {
		chain, keep = append(chain, n), append(keep, need)
		if n.Op == OpFilter {
			need = withColumns(need, n.Pred.Columns(nil)...)
		} else {
			need = n.Cols
		}
		n = n.Children[0]
	}
	if n.Op != OpScan || len(chain) == 0 {
		return nil, false
	}
	pipe := exec.NewPipe(n, n.Rel, p.DOP)
	for i := len(chain) - 1; i >= 0; i-- {
		st := chain[i]
		switch st.Op {
		case OpFilter:
			pred, cols := st.Pred, keep[i]
			pipe.AddStage(st, func(s *storage.Scratch, in *storage.Relation) (*storage.Relation, error) {
				return physical.FilterRel(in, pred, cols, s)
			})
		case OpProject:
			cols := st.Cols
			pipe.AddStage(st, func(_ *storage.Scratch, in *storage.Relation) (*storage.Relation, error) {
				return physical.ProjectRel(in, cols...)
			})
		}
	}
	return pipe, true
}

// ExecuteContext compiles p and runs it through the morsel executor under
// ctx, returning the result relation and the per-operator execution
// profile. A cancelled context aborts the run at the next morsel boundary
// with ctx's error. On failure the partial profile (whatever the operators
// counted before the abort) is returned alongside the typed error, so
// callers can report how far a failed query got.
func ExecuteContext(ctx context.Context, p *Plan, opts ExecOptions) (*storage.Relation, exec.Profile, error) {
	root, err := Compile(p)
	if err != nil {
		return nil, nil, err
	}
	ec := exec.NewExecContextBudget(ctx, opts.MorselSize, opts.Workers, opts.Mem)
	if opts.SpillDir != "" {
		ec.SetSpill(opts.SpillDir, opts.SpillLimit)
	}
	rel, err := exec.Run(ec, root)
	prof := exec.CollectProfile(root)
	if err != nil {
		return nil, prof, err
	}
	return rel, prof, nil
}

// Execute runs the plan through the morsel executor with default options
// and returns its result relation.
func Execute(p *Plan) (*storage.Relation, error) {
	rel, _, err := ExecuteContext(context.Background(), p, ExecOptions{})
	return rel, err
}
