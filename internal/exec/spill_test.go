package exec

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"dqo/internal/expr"
	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/qerr"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// spillRel builds a shuffled relation covering every serialised column kind:
// a duplicate-heavy uint32 key, int64 and float64 payloads, and a
// low-cardinality dictionary-coded string column (the dict re-interning path
// of the frame codec).
func spillRel(name string, n int, seed uint32) *storage.Relation {
	keys := make([]uint32, n)
	vals := make([]int64, n)
	fs := make([]float64, n)
	ss := make([]string, n)
	cities := []string{"ber", "par", "rom", "nyc", "sfo", "tok", "hel"}
	x := seed | 1
	for i := range keys {
		x = x*1664525 + 1013904223
		keys[i] = x % uint32(max(n/3, 1))
		vals[i] = int64(x % 1000)
		fs[i] = float64(x%97) / 3.0
		ss[i] = cities[x%uint32(len(cities))]
	}
	return storage.MustNewRelation(name,
		storage.NewUint32("key", keys),
		storage.NewInt64("val", vals),
		storage.NewFloat64("f", fs),
		storage.NewString("city", ss))
}

// spillDOPs is the worker sweep of the spill differentials.
func spillDOPs() []int {
	out := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		out = append(out, n)
	}
	return out
}

var spillMorsels = []int{1, 7, 1024}

// runSpillTree runs a freshly built tree with spilling armed and a tiny run
// quota, so every spill operator takes its disk path. It returns the result,
// the total run-file bytes written, and fails the test if the spill parent
// directory is not empty again after the run.
func runSpillTree(t *testing.T, build func() Operator, morsel, workers int, quota int64) (*storage.Relation, int64) {
	t.Helper()
	dir := t.TempDir()
	ec := NewExecContext(context.Background(), morsel, workers)
	ec.SetSpill(dir, 0)
	ec.SetSpillQuota(quota)
	root := build()
	out, err := Run(ec, root)
	if err != nil {
		t.Fatalf("morsel=%d workers=%d: %v", morsel, workers, err)
	}
	var spilled int64
	for _, s := range CollectProfile(root) {
		spilled += s.SpillBytes
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 0 {
		t.Fatalf("morsel=%d workers=%d: spill parent not cleaned: %v entries, err=%v", morsel, workers, len(ents), err)
	}
	return out, spilled
}

// sortKernel, groupKernel and joinKernel are the serial kernels the plan
// compiler hands a sort, a chained-hash grouping and a hash join over a key
// of one name on both sides, reserving through the breaker's handle.
func sortKernel(key string, kind sortx.Kind) Kernel {
	return func(_ *ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
		return physical.SortRel(in[0], key, kind, 1, ctl)
	}
}

func groupKernel(key string, aggs []expr.AggSpec, opt physical.GroupOptions, dom props.Domain) Kernel {
	return func(_ *ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
		o := opt
		o.Ctl = ctl
		return physical.GroupByRel(in[0], key, aggs, physical.HG, o, dom)
	}
}

func joinKernel(key string, opt physical.JoinOptions, swapped bool, dom props.Domain, cols []string) Kernel {
	return func(_ *ExecContext, ctl *govern.Ctl, in ...*storage.Relation) (*storage.Relation, error) {
		o := opt
		o.Ctl = ctl
		return physical.JoinRel(in[0], in[1], key, key, physical.HJ, o, dom, swapped, cols, nil)
	}
}

// spillSort, spillGroup and spillJoin are those kernels' spill twins: the
// same breaker with the matching spill strategy.
func spillSort(child Operator, key string, kind sortx.Kind) *Materialize {
	return NewBreaker(Text("sort"), sortKernel(key, kind), SortRuns(key, kind), child)
}

func spillGroup(child Operator, key string, aggs []expr.AggSpec, opt physical.GroupOptions, dom props.Domain) *Materialize {
	return NewBreaker(Text("group"), groupKernel(key, aggs, opt, dom), GroupPartitions(key, aggs, opt, dom), child)
}

func spillJoin(left, right Operator, key string, opt physical.JoinOptions, swapped bool, dom props.Domain, cols []string) *Materialize {
	return NewBreaker(Text("join"), joinKernel(key, opt, swapped, dom, cols), JoinPartitions(key, key, opt, swapped, dom, cols), left, right)
}

// TestSpillSortMatchesInMemory checks the external merge sort against the
// serial in-memory sort for every sort kind across the DOP x morsel grid,
// with a quota small enough to force multi-pass merges.
func TestSpillSortMatchesInMemory(t *testing.T) {
	rel := spillRel("t", 6000, 7)
	for _, kind := range sortx.Kinds() {
		want := runTree(t, NewBreaker(Text("sort"), sortKernel("key", kind), nil, NewScan(Text("scan"), rel)), 4096)
		for _, workers := range spillDOPs() {
			for _, morsel := range spillMorsels {
				got, spilled := runSpillTree(t, func() Operator {
					return spillSort(NewScan(Text("scan"), rel), "key", kind)
				}, morsel, workers, 2048)
				if spilled == 0 {
					t.Fatalf("kind=%v morsel=%d workers=%d: external sort never touched disk", kind, morsel, workers)
				}
				if !got.Equal(want) {
					t.Fatalf("kind=%v morsel=%d workers=%d: spill sort diverges from in-memory sort", kind, morsel, workers)
				}
			}
		}
	}
}

// TestSpillGroupMatchesInMemory checks the partitioned aggregation against
// the serial hash aggregation, for a numeric and a
// dictionary-coded string key.
func TestSpillGroupMatchesInMemory(t *testing.T) {
	rel := spillRel("t", 6000, 11)
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}
	for _, key := range []string{"key", "city"} {
		opt := physical.GroupOptions{Hash: hashtable.Murmur3Fin, Parallel: 1}
		want := runTree(t, NewBreaker(Text("group"), groupKernel(key, aggs, opt, props.Domain{}), nil, NewScan(Text("scan"), rel)), 4096)
		for _, workers := range spillDOPs() {
			for _, morsel := range spillMorsels {
				got, spilled := runSpillTree(t, func() Operator {
					return spillGroup(NewScan(Text("scan"), rel), key, aggs, opt, props.Domain{})
				}, morsel, workers, 2048)
				if spilled == 0 {
					t.Fatalf("key=%s morsel=%d workers=%d: spill group never touched disk", key, morsel, workers)
				}
				if !got.Equal(want) {
					t.Fatalf("key=%s morsel=%d workers=%d: spill group diverges from in-memory group", key, morsel, workers)
				}
			}
		}
	}
}

// TestSpillJoinMatchesInMemory checks the grace hash join against the serial
// in-memory hash join, in both build-side orientations, with every output
// column and with the column list a plan's ancestors would ask for (both
// sides' "key" clash, so the list names a "_r" column too).
func TestSpillJoinMatchesInMemory(t *testing.T) {
	left := spillRel("l", 4000, 3)
	right := spillRel("r", 5000, 13)
	opt := physical.JoinOptions{Hash: hashtable.Murmur3Fin, Parallel: 1}
	for _, cols := range [][]string{nil, {"city_r", "val"}} {
		for _, swapped := range []bool{false, true} {
			want := runTree(t, NewBreaker(Text("join"), joinKernel("key", opt, swapped, props.Domain{}, cols), nil,
				NewScan(Text("l"), left), NewScan(Text("r"), right)), 4096)
			if cols != nil && want.NumCols() != len(cols) {
				t.Fatalf("in-memory join kept %v, want %v", want.ColumnNames(), cols)
			}
			for _, workers := range spillDOPs() {
				for _, morsel := range spillMorsels {
					got, spilled := runSpillTree(t, func() Operator {
						return spillJoin(NewScan(Text("l"), left), NewScan(Text("r"), right), "key", opt, swapped, props.Domain{}, cols)
					}, morsel, workers, 2048)
					if spilled == 0 {
						t.Fatalf("cols=%v swapped=%v morsel=%d workers=%d: grace join never touched disk", cols, swapped, morsel, workers)
					}
					if !got.Equal(want) {
						t.Fatalf("cols=%v swapped=%v morsel=%d workers=%d: grace join diverges from in-memory join", cols, swapped, morsel, workers)
					}
				}
			}
		}
	}
}

// TestSpillIdleStaysInMemory checks the adaptive trigger: under a generous
// quota the spill operators never create the spill directory and still
// return the exact in-memory result.
func TestSpillIdleStaysInMemory(t *testing.T) {
	rel := spillRel("t", 3000, 5)
	want := runTree(t, NewBreaker(Text("sort"), sortKernel("key", sortx.Radix), nil, NewScan(Text("scan"), rel)), 4096)
	dir := t.TempDir()
	ec := NewExecContext(context.Background(), 256, 2)
	ec.SetSpill(dir, 0) // default quota: nothing this small ever flushes
	root := spillSort(NewScan(Text("scan"), rel), "key", sortx.Radix)
	got, err := Run(ec, root)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("idle spill sort diverges from in-memory sort")
	}
	for _, s := range CollectProfile(root) {
		if s.SpillBytes != 0 || s.SpillParts != 0 {
			t.Fatalf("idle spill sort wrote runs: %+v", s)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 0 {
		t.Fatalf("idle spill op created directories: %v entries, err=%v", len(ents), err)
	}
}

// tripwire wraps a child operator and fails on purpose after a number of
// batches: with an error, a context cancellation, or a panic. It drives the
// spill lifecycle census through every abnormal exit.
type tripwire struct {
	base
	child  Operator
	after  int
	mode   string // "error" | "cancel" | "panic"
	cancel context.CancelFunc
	n      int
}

var errTripwire = errors.New("tripwire")

func (s *tripwire) Open(ec *ExecContext) error  { return s.child.Open(ec) }
func (s *tripwire) Close(ec *ExecContext) error { return s.child.Close(ec) }
func (s *tripwire) Children() []Operator        { return []Operator{s.child} }
func (s *tripwire) Next(ec *ExecContext) (*storage.Relation, error) {
	if s.n >= s.after {
		switch s.mode {
		case "cancel":
			s.cancel()
			return nil, ec.Err()
		case "panic":
			panic("tripwire")
		default:
			return nil, errTripwire
		}
	}
	s.n++
	return s.child.Next(ec)
}

// openFDs counts this process's open file descriptors (Linux); -1 when the
// census is unavailable.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// censusPeaks pins the budget peak of a successful census run per breaker
// kind and path: a change in any path's reservation order, or in what its
// drain or kernel charges, moves one of them. The forced join's includes its
// key filter: the smallest, 64 bytes, at a one-byte grant.
var censusPeaks = map[string]int64{
	"sort/in-memory": 288000, "sort/spill-idle": 288000, "sort/spill-forced": 288000,
	"group/in-memory": 206152, "group/spill-idle": 206152, "group/spill-forced": 76280,
	"join/in-memory": 1423584, "join/spill-idle": 1423584, "join/spill-forced": 1542280,
}

// TestSpillLifecycleCensus drives every breaker kind — sort, grouping, join —
// in memory, spill-capable but idle (the default grant) and forced to disk (a
// one-byte grant) through success, a spill disk-cap failure, mid-query
// cancellation, a child error, and a child panic. However the query ends, the
// spill directory must be removed, the memory budget drained, and no file
// descriptor leaked; a successful run must reach its pinned budget peak.
func TestSpillLifecycleCensus(t *testing.T) {
	rel, right := spillRel("t", 6000, 9), spillRel("r", 5000, 13)
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}
	gopt := physical.GroupOptions{Hash: hashtable.Murmur3Fin, Parallel: 1}
	jopt := physical.JoinOptions{Hash: hashtable.Murmur3Fin, Parallel: 1}
	breaker := func(kind string, spill bool, child Operator) Operator {
		var k Kernel
		var s SpillStrategy
		inputs := []Operator{child}
		switch kind {
		case "sort":
			k, s = sortKernel("key", sortx.Radix), SortRuns("key", sortx.Radix)
		case "group":
			k, s = groupKernel("key", aggs, gopt, props.Domain{}), GroupPartitions("key", aggs, gopt, props.Domain{})
		default:
			k, s = joinKernel("key", jopt, false, props.Domain{}, nil), JoinPartitions("key", "key", jopt, false, props.Domain{}, nil)
			inputs = append(inputs, NewScan(Text("r"), right))
		}
		if !spill {
			s = nil
		}
		return NewBreaker(Text(kind), k, s, inputs...)
	}
	outcomes := []struct {
		name    string
		mode    string // tripwire mode; "" = no tripwire
		diskCap int64
		wantErr error // nil = success expected
	}{
		{name: "success"},
		{name: "disk-cap", diskCap: 64, wantErr: qerr.ErrSpillLimitExceeded},
		{name: "child-error", mode: "error", wantErr: errTripwire},
		{name: "cancel", mode: "cancel", wantErr: qerr.ErrCancelled},
		{name: "panic", mode: "panic", wantErr: qerr.ErrInternal},
	}
	for _, oc := range outcomes {
		t.Run(oc.name, func(t *testing.T) {
			for _, kind := range []string{"sort", "group", "join"} {
				for _, path := range []string{"in-memory", "spill-idle", "spill-forced"} {
					t.Run(kind+"-"+path, func(t *testing.T) {
						forced := path == "spill-forced"
						wantErr := oc.wantErr
						if oc.mode == "" && !forced {
							wantErr = nil // only a run file can pass the disk cap
						}
						dir := t.TempDir()
						fds := openFDs()
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						mem := govern.NewBudget(0)
						ec := NewExecContextBudget(ctx, 64, 2, mem)
						ec.SetSpill(dir, oc.diskCap)
						if forced {
							ec.SetSpillQuota(1)
						}
						var child Operator = NewScan(Text("scan"), rel)
						if oc.mode != "" {
							// Trip late enough that runs are already on disk.
							child = &tripwire{base: base{label: Text("trip")}, child: child,
								after: 40, mode: oc.mode, cancel: cancel}
						}
						root := breaker(kind, path != "in-memory", child)
						_, err := Run(ec, root)
						if wantErr == nil {
							if err != nil {
								t.Fatalf("success case failed: %v", err)
							}
							if want := censusPeaks[kind+"/"+path]; mem.Peak() != want {
								t.Fatalf("budget peak %d, want %d", mem.Peak(), want)
							}
						} else if !errors.Is(err, wantErr) {
							t.Fatalf("err = %v, want %v", err, wantErr)
						}
						var spilled int64
						for _, s := range CollectProfile(root) {
							spilled += s.SpillBytes
						}
						if forced && oc.name != "disk-cap" && spilled == 0 {
							t.Fatal("census vacuous: no run files were ever written")
						} else if !forced && spilled != 0 {
							t.Fatalf("%d bytes spilled by a breaker whose input fits", spilled)
						}
						ents, rdErr := os.ReadDir(dir)
						if rdErr != nil || len(ents) != 0 {
							t.Fatalf("spill directory leaked: %d entries, err=%v", len(ents), rdErr)
						}
						if used := mem.Used(); used != 0 {
							t.Fatalf("budget leak: %d bytes still reserved", used)
						}
						if fds >= 0 {
							deadline := time.Now().Add(2 * time.Second)
							for openFDs() > fds && time.Now().Before(deadline) {
								time.Sleep(10 * time.Millisecond)
							}
							if now := openFDs(); now > fds {
								t.Fatalf("fd leak: %d -> %d", fds, now)
							}
						}
					})
				}
			}
		})
	}
}

// TestSpillStatsSurface checks the profile rendering names spilled
// operators with their part and byte counts.
func TestSpillStatsSurface(t *testing.T) {
	rel := spillRel("t", 6000, 21)
	dir := t.TempDir()
	ec := NewExecContext(context.Background(), 256, 1)
	ec.SetSpill(dir, 0)
	ec.SetSpillQuota(2048)
	root := spillSort(NewScan(Text("scan"), rel), "key", sortx.Radix)
	if _, err := Run(ec, root); err != nil {
		t.Fatal(err)
	}
	prof := CollectProfile(root)
	if prof[0].SpillBytes == 0 || prof[0].SpillParts == 0 {
		t.Fatalf("spill counters empty: %+v", prof[0])
	}
	text := prof.String()
	if want := "spilled"; !strings.Contains(text, want) {
		t.Fatalf("profile rendering missing %q:\n%s", want, text)
	}
}

// BenchmarkExternalSort is the bench guard for spill-capable sorting at the
// repository benchmark's shape: the idle-spill variant (directory armed,
// nothing flushed) must track the plain in-memory sort, and the forced
// variant prices the range deal through disk.
func BenchmarkExternalSort(b *testing.B) { benchSpillPaths(b, spillSortShape(), forcedQuota) }

// benchSpillPaths times a breaker in memory, spill-capable but idle, and
// forced to disk by the run quota forced.
func benchSpillPaths(b *testing.B, build func(spill bool) Operator, forced int64) {
	b.Run("in-memory", func(b *testing.B) { benchSpillOp(b, func() Operator { return build(false) }, 0) })
	b.Run("spill-idle", func(b *testing.B) { benchSpillOp(b, func() Operator { return build(true) }, 0) })
	b.Run("spill-forced", func(b *testing.B) { benchSpillOp(b, func() Operator { return build(true) }, forced) })
}

// benchSpillOp times one breaker tree per iteration with the spill directory
// armed: in memory (quota 0 = the default grant, nothing flushes) or forced
// to disk by a small run quota.
func benchSpillOp(b *testing.B, build func() Operator, quota int64) {
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ec := NewExecContext(context.Background(), 4096, 1)
		ec.SetSpill(dir, 0)
		if quota > 0 {
			ec.SetSpillQuota(quota)
		}
		if _, err := Run(ec, build()); err != nil {
			b.Fatal(err)
		}
	}
}

// sparseKeys returns n shuffled keys over distinct sparse values, each value
// n/distinct times: the benchmark's high-cardinality grouping and unique-key
// join columns.
func sparseKeys(n, distinct int, seed uint32) []uint32 {
	keys := make([]uint32, n)
	x := seed | 1
	for i := range keys {
		keys[i] = uint32(i%distinct)*uint32((1<<32)/uint64(distinct)) + seed%97
	}
	for i := n - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x>>8) % (i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// plannedDomain is the key domain the optimiser would hand the operator: the
// column's statistics, taken once (a zero domain makes the join kernel take
// them per call — per partition pair, in the spilling twin).
func plannedDomain(rel *storage.Relation, key string) props.Domain {
	st := rel.MustColumn(key).Stats()
	return props.FromStats(st.Rows, st.Min, st.Max, st.Distinct, st.Dense, st.Exact)
}

func payloadCol(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	return vals
}

// forcedQuota is the run quota that the repository benchmark's 2 MiB memory
// limit grants (a quarter of it): what forces the spill twins of
// BenchmarkExternalSort, BenchmarkSpillGroup and BenchmarkSpillJoin to disk.
const forcedQuota = 512 << 10

// spillGroupShape builds the repository benchmark's spilling grouping (120 000
// rows, 30 000 groups, COUNT + SUM): the in-memory breaker, or its spill twin.
func spillGroupShape() func(spill bool) Operator {
	rel := storage.MustNewRelation("G", storage.NewUint32("K", sparseKeys(120_000, 30_000, 5)),
		storage.NewInt64("V", payloadCol(120_000)))
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "V"}}
	opt := physical.GroupOptions{Hash: hashtable.Identity, Parallel: 1}
	dom := plannedDomain(rel, "K")
	return func(spill bool) Operator {
		if spill {
			return spillGroup(NewScan(Text("scan"), rel), "K", aggs, opt, dom)
		}
		return NewBreaker(Text("group"), groupKernel("K", aggs, opt, dom), nil, NewScan(Text("scan"), rel))
	}
}

// spillJoinShape builds the repository benchmark's spilling join (two tables
// of 70 000 unique keys that share 1 000 of them): the in-memory breaker, or
// its spill twin.
func spillJoinShape() func(spill bool) Operator {
	const n, shared = 70_000, 1_000
	keys := sparseKeys(2*n-shared, 2*n-shared, 11)
	left := storage.MustNewRelation("P", storage.NewUint32("K", keys[:n]), storage.NewInt64("V", payloadCol(n)))
	right := storage.MustNewRelation("Q", storage.NewUint32("K", keys[n-shared:]), storage.NewInt64("W", payloadCol(n)))
	opt := physical.JoinOptions{Hash: hashtable.Identity, Parallel: 1}
	dom := plannedDomain(left, "K")
	return func(spill bool) Operator {
		if spill {
			return spillJoin(NewScan(Text("l"), left), NewScan(Text("r"), right), "K", opt, false, dom, nil)
		}
		return NewBreaker(Text("join"), joinKernel("K", opt, false, dom, nil), nil, NewScan(Text("l"), left), NewScan(Text("r"), right))
	}
}

// spillSortShape builds the repository benchmark's external sort (115 000
// rows of a unique sparse ID and a uint32 A, ORDER BY ID): the in-memory
// breaker, or its spill twin.
func spillSortShape() func(spill bool) Operator {
	const n = 115_000
	a := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i*7919) % 1000
	}
	rel := storage.MustNewRelation("O", storage.NewUint32("ID", sparseKeys(n, n, 3)), storage.NewUint32("A", a))
	return func(spill bool) Operator {
		if spill {
			return spillSort(NewScan(Text("scan"), rel), "ID", sortx.Radix)
		}
		return NewBreaker(Text("sort"), sortKernel("ID", sortx.Radix), nil, NewScan(Text("scan"), rel))
	}
}

// BenchmarkSpillGroup is the bench guard for the spilling aggregation at the
// repository benchmark's shape: the in-memory breaker, its spill twin idle,
// and the twin forced to partition through disk by forcedQuota.
func BenchmarkSpillGroup(b *testing.B) { benchSpillPaths(b, spillGroupShape(), forcedQuota) }

// BenchmarkSpillJoin is the bench guard for the grace hash join at the
// repository benchmark's shape, on the same three paths as
// BenchmarkSpillGroup.
func BenchmarkSpillJoin(b *testing.B) { benchSpillPaths(b, spillJoinShape(), forcedQuota) }

// TestSpillForcedAllocBound guards what the forced spill twins of
// BenchmarkExternalSort, BenchmarkSpillGroup and BenchmarkSpillJoin allocate
// per operation beyond their kernels' own output: frames moved with one copy
// per column, partition and load buffers drawn from pooled scratch, no sorted
// copy per partition, grouping tables sized for a partition rather than for
// the whole input, a join that deals only the second-input rows its key
// filter passes, and partition outputs concatenated into pooled scratch.
func TestSpillForcedAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	for _, tc := range []struct {
		name  string
		build func(spill bool) Operator
		bound uint64
	}{
		{"sort", spillSortShape(), 3_000_000},
		{"group", spillGroupShape(), 4_000_000},
		{"join", spillJoinShape(), 1_200_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func() {
				ec := NewExecContext(context.Background(), 4096, 1)
				ec.SetSpill(dir, 0)
				ec.SetSpillQuota(forcedQuota)
				root := tc.build(true)
				if _, err := Run(ec, root); err != nil {
					t.Fatal(err)
				}
				if CollectProfile(root)[0].SpillBytes == 0 {
					t.Fatal("vacuous: the twin did not spill")
				}
			}
			run() // warm the scratch pools
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			got := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("forced spill %s: %d B/op", tc.name, got)
			if got > tc.bound {
				t.Fatalf("forced spill %s allocates %d B/op, want at most %d", tc.name, got, tc.bound)
			}
		})
	}
}
