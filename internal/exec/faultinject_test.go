//go:build faultinject

package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dqo/internal/expr"
	"dqo/internal/faultinject"
	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/qerr"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// TestMain prints the failure-point coverage summary after the suite so CI
// can archive which points were actually exercised (the registry is
// process-local, so the summary has to come from this binary).
func TestMain(m *testing.M) {
	code := m.Run()
	fmt.Print(faultinject.Summary())
	os.Exit(code)
}

// govCase is one operator tree of the injection matrix together with the
// failure points it can reach.
type govCase struct {
	name   string
	points []string
	build  func(dop int) Operator
}

func govCases(t *testing.T) []govCase {
	t.Helper()
	// Large enough that two workers clear the kernels' 4096-row per-worker
	// parallel minimum, so the sort-merge point is actually reached at
	// DOP >= 2 (the join's build point is reached at every DOP). The ids
	// descend: a sort returns input already in key order as it is, and would
	// reach no merge.
	rel := testRel(t, 12000)
	desc := make([]int32, rel.NumRows())
	for i := range desc {
		desc[i] = int32(len(desc) - 1 - i)
	}
	rel = rel.Gather(nil, desc)
	keys := make([]uint32, 3000)
	vals := make([]int64, 3000)
	for i := range keys {
		keys[i] = uint32(i % 1500)
		vals[i] = int64(i)
	}
	grpRel := storage.MustNewRelation("g",
		storage.NewUint32("key", keys), storage.NewInt64("val", vals))
	rIDs := make([]uint32, 8192)
	for i := range rIDs {
		rIDs[i] = uint32(i)
	}
	joinL := storage.MustNewRelation("l", storage.NewUint32("id", rIDs))
	sKeys := make([]uint32, 16384)
	for i := range sKeys {
		sKeys[i] = uint32(i % 8192)
	}
	joinR := storage.MustNewRelation("r", storage.NewUint32("fk", sKeys))

	pred := expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "id"}, R: expr.IntLit{V: 10000}}
	return []govCase{
		{
			name: "pipe+sort",
			points: []string{
				faultinject.PointExecRunNext,
				faultinject.PointExecPipeMorsel,
				faultinject.PointExecDrainBatch,
				faultinject.PointExecBreaker,
				faultinject.PointSortxMerge,
				faultinject.PointStorageConcat,
			},
			build: func(dop int) Operator {
				pipe := NewPipe(Text("scan"), rel, dop)
				pipe.AddStage(Text("filter"), func(s *storage.Scratch, in *storage.Relation) (*storage.Relation, error) {
					return physical.FilterRel(in, pred, nil, s)
				})
				b := NewBreaker(Text("sort"), func(ec *ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
					return physical.SortRel(in[0], "id", sortx.Radix, ec.EffectiveDOP(dop), ctl)
				}, nil, pipe)
				b.SetDOP(dop)
				return b
			},
		},
		{
			name:   "group-hg",
			points: []string{faultinject.PointHashtableGrow},
			build: func(dop int) Operator {
				aggs := []expr.AggSpec{{Func: expr.AggCount}}
				b := NewBreaker(Text("group"), func(ec *ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
					opt := physical.GroupOptions{
						Hash:     hashtable.Murmur3Fin,
						Parallel: ec.EffectiveDOP(dop), Ctl: ctl,
					}
					// A planned domain that counts 8 distinct keys where
					// the input holds 1 500 (a zero one would fall back to
					// the exact statistics and presize the tables): they
					// start small and must grow, reaching the hashtable.grow
					// failure point.
					dom := props.Domain{Known: true, Lo: 0, Hi: 1499, Distinct: 8}
					return physical.GroupByRel(in[0], "key", aggs, physical.HG, opt, dom)
				}, nil, NewScan(Text("scan"), grpRel))
				b.SetDOP(dop)
				return b
			},
		},
		{
			name:   "join-hj",
			points: []string{faultinject.PointPhysicalBuild},
			build: func(dop int) Operator {
				b := NewBreaker(Text("join"), func(ec *ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
					opt := physical.JoinOptions{
						Hash: hashtable.Murmur3Fin, Parallel: ec.EffectiveDOP(dop), Ctl: ctl,
					}
					return physical.JoinRel(in[0], in[1], "id", "fk", physical.HJ, opt, props.Domain{}, false, nil, nil)
				}, nil, NewScan(Text("l"), joinL), NewScan(Text("r"), joinR))
				b.SetDOP(dop)
				return b
			},
		},
	}
}

// waitGoroutines fails the test if the goroutine count stays above the
// baseline for two seconds — the leak assertion of the injection matrix.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInjectedPanicMatrix arms every reachable failure point with a panic
// and drives each tree across the DOP × morsel-size grid. Whenever the
// armed point actually fires, the query must fail with the typed
// ErrInternal; in every outcome the memory budget must drain back to zero
// and no goroutine may leak.
func TestInjectedPanicMatrix(t *testing.T) {
	cases := govCases(t)
	dops := []int{1, 2, runtime.NumCPU()}
	morsels := []int{1, 7, 1024}
	for _, tc := range cases {
		for _, point := range tc.points {
			for _, dop := range dops {
				for _, morsel := range morsels {
					name := fmt.Sprintf("%s/%s/dop%d/m%d", tc.name, point, dop, morsel)
					t.Run(name, func(t *testing.T) {
						// Clear, not Reset: hit counters must accumulate
						// across the suite for the coverage summary.
						faultinject.Set(point, faultinject.Action{Panic: "injected:" + point})
						defer faultinject.Clear(point)
						base := runtime.NumGoroutine()
						firedBefore := faultinject.Fired(point)
						mem := govern.NewBudget(0)
						ec := NewExecContextBudget(context.Background(), morsel, dop, mem)
						_, err := Run(ec, tc.build(dop))
						if faultinject.Fired(point) > firedBefore {
							if !errors.Is(err, qerr.ErrInternal) {
								t.Fatalf("armed point fired but err = %v, want ErrInternal", err)
							}
							var qe *qerr.Error
							if !errors.As(err, &qe) || len(qe.Stack) == 0 {
								t.Fatalf("internal error carries no stack: %#v", err)
							}
						} else if err != nil {
							t.Fatalf("point never fired yet query failed: %v", err)
						}
						if used := mem.Used(); used != 0 {
							t.Fatalf("budget leak: %d bytes still reserved", used)
						}
						waitGoroutines(t, base)
					})
				}
			}
		}
	}
}

// TestInjectedErrorPropagates arms a point with a plain error and checks it
// surfaces unwrapped through Run.
func TestInjectedErrorPropagates(t *testing.T) {
	sentinel := errors.New("injected failure")
	cases := govCases(t)
	faultinject.Set(faultinject.PointExecBreaker, faultinject.Action{Err: sentinel})
	defer faultinject.Clear(faultinject.PointExecBreaker)
	mem := govern.NewBudget(0)
	ec := NewExecContextBudget(context.Background(), 64, 2, mem)
	_, err := Run(ec, cases[0].build(2))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the injected sentinel", err)
	}
	if used := mem.Used(); used != 0 {
		t.Fatalf("budget leak: %d bytes still reserved", used)
	}
}

// TestInjectedSlowMorselTimeout delays every pipe morsel past a short
// deadline: the query must abort with the typed timeout and leak nothing.
func TestInjectedSlowMorselTimeout(t *testing.T) {
	cases := govCases(t)
	base := runtime.NumGoroutine()
	faultinject.Set(faultinject.PointExecPipeMorsel, faultinject.Action{Delay: 20 * time.Millisecond})
	defer faultinject.Clear(faultinject.PointExecPipeMorsel)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	mem := govern.NewBudget(0)
	ec := NewExecContextBudget(ctx, 16, 2, mem)
	_, err := Run(ec, cases[0].build(2))
	if !errors.Is(err, qerr.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if used := mem.Used(); used != 0 {
		t.Fatalf("budget leak: %d bytes still reserved", used)
	}
	waitGoroutines(t, base)
}

// TestInjectedMergeCancellation delays every merge pass of the parallel
// sort past a short deadline, so the cancellation deterministically lands
// during the k-way merge rather than the run-sort phase.
func TestInjectedMergeCancellation(t *testing.T) {
	cases := govCases(t)
	base := runtime.NumGoroutine()
	faultinject.Set(faultinject.PointSortxMerge, faultinject.Action{Delay: 100 * time.Millisecond})
	defer faultinject.Clear(faultinject.PointSortxMerge)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	mem := govern.NewBudget(0)
	ec := NewExecContextBudget(ctx, 1024, 2, mem)
	_, err := Run(ec, cases[0].build(2))
	if !errors.Is(err, qerr.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout during merge", err)
	}
	if faultinject.Fired(faultinject.PointSortxMerge) == 0 {
		t.Fatal("merge point never fired; cancellation did not land in the merge phase")
	}
	if used := mem.Used(); used != 0 {
		t.Fatalf("budget leak: %d bytes still reserved", used)
	}
	waitGoroutines(t, base)
}

// spillGovTree is the spilling counterpart of the matrix trees: an external
// merge sort whose tiny run quota forces disk traffic, reaching the
// spill.write and spill.read failure points.
func spillGovTree() Operator {
	return spillSort(NewScan(Text("scan"), spillRel("t", 6000, 7)), "key", sortx.Radix)
}

func newSpillEC(t *testing.T, morsel, dop int, mem *govern.Budget) (*ExecContext, string) {
	t.Helper()
	dir := t.TempDir()
	ec := NewExecContextBudget(context.Background(), morsel, dop, mem)
	ec.SetSpill(dir, 0)
	ec.SetSpillQuota(1)
	return ec, dir
}

// TestInjectedSpillIOError arms the spill write and read points with a plain
// error — the disk-full / corrupt-run-file model. The query must fail with
// the typed ErrSpillIO still carrying the injected cause, drain its budget,
// and leave no run files behind.
func TestInjectedSpillIOError(t *testing.T) {
	for _, point := range []string{faultinject.PointSpillWrite, faultinject.PointSpillRead} {
		point := point
		t.Run(point, func(t *testing.T) {
			sentinel := errors.New("injected spill failure")
			// Fire on the 10th hit so writes (and for spill.read, whole runs)
			// exist before the failure — cleanup then has real files to remove.
			faultinject.Set(point, faultinject.Action{Err: sentinel, After: 10})
			defer faultinject.Clear(point)
			base := runtime.NumGoroutine()
			mem := govern.NewBudget(0)
			ec, dir := newSpillEC(t, 64, 2, mem)
			_, err := Run(ec, spillGovTree())
			if faultinject.Fired(point) == 0 {
				t.Fatal("spill point never fired; the tree does not reach it")
			}
			if !errors.Is(err, qerr.ErrSpillIO) || !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want ErrSpillIO wrapping the sentinel", err)
			}
			if ents, rdErr := os.ReadDir(dir); rdErr != nil || len(ents) != 0 {
				t.Fatalf("spill directory leaked after injected failure: %d entries, err=%v", len(ents), rdErr)
			}
			if used := mem.Used(); used != 0 {
				t.Fatalf("budget leak: %d bytes still reserved", used)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestInjectedSpillCleanupError arms the cleanup point: the query itself
// succeeds, so the failed cleanup must surface as the query's error (a
// resource leak is not a silent event) while the directory is still removed.
func TestInjectedSpillCleanupError(t *testing.T) {
	sentinel := errors.New("injected cleanup failure")
	faultinject.Set(faultinject.PointSpillCleanup, faultinject.Action{Err: sentinel})
	defer faultinject.Clear(faultinject.PointSpillCleanup)
	mem := govern.NewBudget(0)
	ec, dir := newSpillEC(t, 64, 2, mem)
	_, err := Run(ec, spillGovTree())
	if faultinject.Fired(faultinject.PointSpillCleanup) == 0 {
		t.Fatal("cleanup point never fired")
	}
	if !errors.Is(err, qerr.ErrSpillIO) || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want ErrSpillIO wrapping the sentinel", err)
	}
	if ents, rdErr := os.ReadDir(dir); rdErr != nil || len(ents) != 0 {
		t.Fatalf("injected cleanup failure leaked files: %d entries, err=%v", len(ents), rdErr)
	}
	if used := mem.Used(); used != 0 {
		t.Fatalf("budget leak: %d bytes still reserved", used)
	}
}

// TestInjectedSpillPanicMatrix arms the spill write and read points with a
// panic across the DOP × morsel grid. The cleanup point is deliberately
// excluded: it fires inside Run's deferred unwind, after the recover, where
// a panic would (correctly) crash the process rather than become an error.
func TestInjectedSpillPanicMatrix(t *testing.T) {
	dops := []int{1, 2, runtime.NumCPU()}
	morsels := []int{1, 7, 1024}
	for _, point := range []string{faultinject.PointSpillWrite, faultinject.PointSpillRead} {
		for _, dop := range dops {
			for _, morsel := range morsels {
				name := fmt.Sprintf("%s/dop%d/m%d", point, dop, morsel)
				t.Run(name, func(t *testing.T) {
					// After 2, not more: at morsel 1024 the tree only flushes a
					// handful of runs, and the point must still fire.
					faultinject.Set(point, faultinject.Action{Panic: "injected:" + point, After: 2})
					defer faultinject.Clear(point)
					base := runtime.NumGoroutine()
					firedBefore := faultinject.Fired(point)
					mem := govern.NewBudget(0)
					ec, dir := newSpillEC(t, morsel, dop, mem)
					_, err := Run(ec, spillGovTree())
					if faultinject.Fired(point) > firedBefore {
						if !errors.Is(err, qerr.ErrInternal) {
							t.Fatalf("armed point fired but err = %v, want ErrInternal", err)
						}
					} else if err != nil {
						t.Fatalf("point never fired yet query failed: %v", err)
					}
					if ents, rdErr := os.ReadDir(dir); rdErr != nil || len(ents) != 0 {
						t.Fatalf("spill directory leaked after injected panic: %d entries, err=%v", len(ents), rdErr)
					}
					if used := mem.Used(); used != 0 {
						t.Fatalf("budget leak: %d bytes still reserved", used)
					}
					waitGoroutines(t, base)
				})
			}
		}
	}
}

// TestInjectedAllocFailure arms the hash-table growth point with a typed
// budget error, modelling an allocation that trips the limit mid-kernel.
func TestInjectedAllocFailure(t *testing.T) {
	cases := govCases(t)
	faultinject.Set(faultinject.PointHashtableGrow,
		faultinject.Action{Err: qerr.New(qerr.ErrMemoryBudgetExceeded, "injected allocation failure")})
	defer faultinject.Clear(faultinject.PointHashtableGrow)
	mem := govern.NewBudget(0)
	ec := NewExecContextBudget(context.Background(), 128, 2, mem)
	_, err := Run(ec, cases[1].build(2))
	if !errors.Is(err, qerr.ErrMemoryBudgetExceeded) {
		t.Fatalf("err = %v, want ErrMemoryBudgetExceeded", err)
	}
	if used := mem.Used(); used != 0 {
		t.Fatalf("budget leak: %d bytes still reserved", used)
	}
}
