package benchkit

import (
	"context"
	"fmt"
	"io"
	"time"

	"dqo/internal/datagen"
	"dqo/internal/exec"
	"dqo/internal/expr"
	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// ScalingRow is one measured point of the worker-scaling sweep: a query
// kernel run at a fixed degree of parallelism, with its speedup over the
// same kernel at one worker.
type ScalingRow struct {
	Query   string
	Workers int
	Millis  float64
	Speedup float64
}

// workerSweep returns 1, 2, 4, ... up to and including maxWorkers.
func workerSweep(maxWorkers int) []int {
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	var ps []int
	for p := 1; p < maxWorkers; p *= 2 {
		ps = append(ps, p)
	}
	return append(ps, maxWorkers)
}

// RunScaling measures the morsel-parallel kernels — partitioned hash
// aggregation, radix-partitioned hash join, parallel sort, and the
// filter/project pipe — at 1..maxWorkers workers on n-row datasets and
// prints a per-query speedup table. One worker always runs the pre-existing
// serial kernel, so the speedup column is parallel vs serial, not parallel
// vs itself.
func RunScaling(n, groups, maxWorkers int, seed uint64, w io.Writer) ([]ScalingRow, error) {
	q := datagen.Quadrant{Sorted: false, Dense: false}
	rel := datagen.GroupingRelation(seed, n, groups, q)
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}

	rRows := n / 10
	if rRows < 1000 {
		rRows = 1000
	}
	aGroups := groups
	if aGroups > rRows {
		aGroups = rRows
	}
	fk := datagen.FKConfig{RRows: rRows, SRows: n, AGroups: aGroups, Dense: false}
	r, s := datagen.FKPair(seed, fk)

	pred := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "val"}, R: expr.IntLit{V: 500}}

	queries := []struct {
		name string
		run  func(p int) error
	}{
		{"group-by HG(chained,murmur3fin)", func(p int) error {
			_, err := physical.GroupByRel(rel, "key", aggs, physical.HG,
				physical.GroupOptions{Scheme: hashtable.Chained, Hash: hashtable.Murmur3Fin, Parallel: p})
			return err
		}},
		{"join HJ(murmur3fin)", func(p int) error {
			_, err := physical.JoinRel(r, s, "ID", "R_ID", physical.HJ,
				physical.JoinOptions{Hash: hashtable.Murmur3Fin, Parallel: p})
			return err
		}},
		{"sort SOG(radix)", func(p int) error {
			_, err := physical.SortRelPar(rel, "key", sortx.Radix, p)
			return err
		}},
		{"filter pipe (val < 500)", func(p int) error {
			var root exec.Operator
			if p > 1 {
				pipe := exec.NewPipe(exec.Text("scan"), rel, p)
				pipe.AddStage(exec.Text("filter"), func(in *storage.Relation) (*storage.Relation, error) {
					return physical.FilterRel(in, pred)
				})
				root = pipe
			} else {
				root = exec.NewFilter(exec.Text("filter"), exec.NewScan(exec.Text("scan"), rel), pred)
			}
			ec := exec.NewExecContext(context.Background(), 0, p)
			_, err := exec.Run(ec, root)
			return err
		}},
	}

	fmt.Fprintf(w, "# scaling: parallel kernels at 1..%d workers, N=%d groups=%d\n", maxWorkers, n, groups)
	fmt.Fprintf(w, "%-34s %-10s %12s %10s\n", "query", "workers", "runtime_ms", "speedup")
	var rows []ScalingRow
	for _, query := range queries {
		base := 0.0
		for _, p := range workerSweep(maxWorkers) {
			start := time.Now()
			if err := query.run(p); err != nil {
				return nil, fmt.Errorf("benchkit: scaling %s at %d workers: %w", query.name, p, err)
			}
			ms := float64(time.Since(start).Microseconds()) / 1000.0
			if p == 1 {
				base = ms
			}
			speedup := 0.0
			if ms > 0 {
				speedup = base / ms
			}
			rows = append(rows, ScalingRow{Query: query.name, Workers: p, Millis: ms, Speedup: speedup})
			fmt.Fprintf(w, "%-34s %-10d %12.2f %9.2fx\n", query.name, p, ms, speedup)
		}
	}
	return rows, nil
}
