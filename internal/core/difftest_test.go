package core

// Differential testing: random schemas, datasets, and query shapes are
// executed both by the full pipeline (optimise under every mode, run the
// winning plan as planned and re-planned at every breaker) and by the
// independent naive evaluator (internal/naive). Any divergence is a bug in
// the optimiser, the property propagation, re-planning, or a kernel.

import (
	"context"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/exec"
	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/naive"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// randomQuery builds a random logical plan over freshly generated tables.
func randomQuery(r *xrand.Rand) logical.Node {
	rRows := int(r.Uint64n(400)) + 2
	aGroups := int(r.Uint64n(uint64(rRows))) + 1
	sRows := int(r.Uint64n(1200))
	cfg := datagen.FKConfig{
		RRows: rRows, SRows: sRows, AGroups: aGroups,
		RSorted: r.Uint64n(2) == 0, SSorted: r.Uint64n(2) == 0,
		Dense: r.Uint64n(2) == 0,
	}
	rt, st := datagen.FKPair(r.Uint64(), cfg)

	var node logical.Node
	shape := r.Uint64n(4)
	switch shape {
	case 0: // group over R only
		node = &logical.Scan{Table: "R", Rel: rt}
	case 1, 2: // join then group
		node = &logical.Join{
			Left:    &logical.Scan{Table: "R", Rel: rt},
			Right:   &logical.Scan{Table: "S", Rel: st},
			LeftKey: "ID", RightKey: "R_ID",
		}
	default: // swapped-side join (dense build on the right)
		node = &logical.Join{
			Left:    &logical.Scan{Table: "S", Rel: st},
			Right:   &logical.Scan{Table: "R", Rel: rt},
			LeftKey: "R_ID", RightKey: "ID",
		}
	}
	if r.Uint64n(2) == 0 {
		threshold := int64(r.Uint64n(uint64(aGroups) + 1))
		node = &logical.Filter{Input: node, Pred: expr.Bin{
			Op: expr.OpLt, L: expr.Col{Name: "A"}, R: expr.IntLit{V: threshold},
		}}
	}
	aggs := []expr.AggSpec{{Func: expr.AggCount}}
	if r.Uint64n(2) == 0 && shape != 0 {
		aggs = append(aggs, expr.AggSpec{Func: expr.AggSum, Col: "M"})
	}
	if r.Uint64n(3) == 0 {
		aggs = append(aggs, expr.AggSpec{Func: expr.AggMin, Col: "A"}, expr.AggSpec{Func: expr.AggMax, Col: "A"})
	}
	node = &logical.GroupBy{Input: node, Key: "A", Aggs: aggs}
	if r.Uint64n(2) == 0 {
		node = &logical.Sort{Input: node, Key: "A"}
	}
	return node
}

// replanned runs p through CompileReopt at a threshold every estimate that
// is not exact trips, so nearly every breaker re-plans through replan and its
// remainder through the node dispatch.
func replanned(p *Plan, m Mode) (*storage.Relation, *ReoptConfig, error) {
	rc := &ReoptConfig{Mode: m, Threshold: 1.0001}
	root, err := CompileReopt(p, rc)
	if err != nil {
		return nil, nil, err
	}
	out, err := exec.Run(exec.NewExecContext(context.Background(), 0, 0), root)
	return out, rc, err
}

func TestDifferentialRandomQueries(t *testing.T) {
	const trials = 120
	r := xrand.New(20260706)
	modes := []Mode{SQO(), DQO(), DQOCalibrated(), Greedy(), DQO().WithBeam(2)}
	splices := 0
	for trial := 0; trial < trials; trial++ {
		q := randomQuery(r)
		want, err := naive.Execute(q)
		if err != nil {
			t.Fatalf("trial %d: naive: %v\n%s", trial, err, logical.Format(q))
		}
		for _, m := range modes {
			res, err := Optimize(q, m)
			if err != nil {
				t.Fatalf("trial %d %s: optimise: %v\n%s", trial, m.Name, err, logical.Format(q))
			}
			got, err := Execute(res.Best)
			if err != nil {
				t.Fatalf("trial %d %s: execute: %v\n%s", trial, m.Name, err, res.Best.Explain())
			}
			if err := naive.Check(got, want, naive.SortKey(q), -1); err != nil {
				t.Fatalf("trial %d %s: %v\nplan:\n%s\nquery:\n%s", trial, m.Name, err, res.Best.Explain(), logical.Format(q))
			}
			got, rc, err := replanned(res.Best, m)
			if err != nil {
				t.Fatalf("trial %d %s: re-planned: %v\n%s", trial, m.Name, err, res.Best.Explain())
			}
			if err := naive.Check(got, want, naive.SortKey(q), -1); err != nil {
				t.Fatalf("trial %d %s: re-planned: %v\nsplices: %v\nplan:\n%s", trial, m.Name, err, rc.Events(), res.Best.Explain())
			}
			splices += len(rc.Events())
		}
	}
	if splices == 0 {
		t.Fatal("no breaker re-planned: the re-planned runs are vacuous")
	}
}

func TestDifferentialSortedOutputs(t *testing.T) {
	// When the query sorts, row order itself must match the reference.
	r := xrand.New(7)
	for trial := 0; trial < 40; trial++ {
		q := &logical.Sort{Input: randomQuery(r), Key: "A"}
		// randomQuery may already end in Sort(A); double sorting is a no-op.
		want, err := naive.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(q, DQO())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Execute(res.Best)
		if err != nil {
			t.Fatal(err)
		}
		if err := naive.Check(got, want, "A", -1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
