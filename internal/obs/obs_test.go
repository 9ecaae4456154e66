package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dqo/internal/qerr"
)

func TestPhasesOrder(t *testing.T) {
	want := []string{"parse", "bind", "optimise", "compile", "admission-wait", "execute"}
	got := Phases()
	if len(got) != len(want) {
		t.Fatalf("Phases() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Phases()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSpanWalkPreOrder(t *testing.T) {
	root := &Span{Name: "a", Children: []*Span{
		{Name: "b", Children: []*Span{{Name: "c"}}},
		{Name: "d"},
	}}
	var names []string
	var depths []int
	root.Walk(func(s *Span, d int) {
		names = append(names, s.Name)
		depths = append(depths, d)
	})
	if strings.Join(names, "") != "abcd" {
		t.Fatalf("pre-order = %v", names)
	}
	wantD := []int{0, 1, 2, 1}
	for i, d := range wantD {
		if depths[i] != d {
			t.Fatalf("depths = %v, want %v", depths, wantD)
		}
	}
}

func TestQueryTracePhase(t *testing.T) {
	tr := &QueryTrace{Root: &Span{Name: "query", Children: []*Span{
		{Name: PhaseParse}, {Name: PhaseExecute, Dur: time.Millisecond},
	}}}
	if sp := tr.Phase(PhaseExecute); sp == nil || sp.Dur != time.Millisecond {
		t.Fatalf("Phase(execute) = %+v", sp)
	}
	if sp := tr.Phase("nope"); sp != nil {
		t.Fatalf("Phase(nope) = %+v, want nil", sp)
	}
	var nilTrace *QueryTrace
	if sp := nilTrace.Phase(PhaseParse); sp != nil {
		t.Fatalf("nil trace Phase = %+v", sp)
	}
}

func TestKindLabel(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{qerr.ErrCancelled, "cancelled"},
		{fmt.Errorf("wrap: %w", qerr.ErrTimeout), "timeout"},
		{qerr.ErrMemoryBudgetExceeded, "memory_budget"},
		{qerr.ErrQueueFull, "queue_full"},
		{qerr.ErrInternal, "internal"},
		{errors.New("parse error"), "other"},
		{context.Canceled, "other"},
	}
	for _, c := range cases {
		if got := KindLabel(c.err); got != c.want {
			t.Errorf("KindLabel(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestRingTracerEviction(t *testing.T) {
	r := NewRingTracer(3)
	if r.Last() != nil {
		t.Fatal("Last on empty ring should be nil")
	}
	for i := 0; i < 5; i++ {
		r.TraceQuery(&QueryTrace{Query: fmt.Sprintf("q%d", i)})
	}
	if r.Count() != 5 {
		t.Fatalf("Count = %d, want 5", r.Count())
	}
	if got := r.Last().Query; got != "q4" {
		t.Fatalf("Last = %q, want q4", got)
	}
	traces := r.Traces()
	if len(traces) != 3 {
		t.Fatalf("len(Traces) = %d, want 3", len(traces))
	}
	for i, want := range []string{"q2", "q3", "q4"} {
		if traces[i].Query != want {
			t.Fatalf("Traces[%d] = %q, want %q", i, traces[i].Query, want)
		}
	}
}

// countingSource is a Deferred that counts how often its trace is built.
type countingSource struct {
	name   string
	builds *int
	trace  *QueryTrace
}

func (c *countingSource) Trace() *QueryTrace {
	if c.trace == nil {
		*c.builds++
		c.trace = &QueryTrace{Query: c.name}
	}
	return c.trace
}

// TestRingTracerDefers: a deferred trace is built when it is read, at most
// once, and never if it is evicted unread; Settle builds what is pending.
func TestRingTracerDefers(t *testing.T) {
	r := NewRingTracer(3)
	builds := 0
	for i := 0; i < 5; i++ {
		r.Defer(&countingSource{name: fmt.Sprintf("q%d", i), builds: &builds})
	}
	if r.Count() != 5 || builds != 0 {
		t.Fatalf("Count = %d, builds = %d before any read", r.Count(), builds)
	}
	if got := r.Last(); got.Query != "q4" || builds != 1 || r.Last() != got || builds != 1 {
		t.Fatalf("Last = %q after %d builds", got.Query, builds)
	}
	r.TraceQuery(&QueryTrace{Query: "built"})
	traces := r.Traces()
	if len(traces) != 3 || traces[0].Query != "q3" || traces[1].Query != "q4" || traces[2].Query != "built" {
		t.Fatalf("Traces = %v", traces)
	}
	if builds != 2 { // q3 now, q4 before; q0..q2 were evicted unread
		t.Fatalf("builds = %d, want 2", builds)
	}
	r.Defer(&countingSource{name: "q5", builds: &builds})
	r.Settle()
	if builds != 3 {
		t.Fatalf("Settle left a trace pending: builds = %d", builds)
	}
	if r.Last().Query != "q5" || builds != 3 {
		t.Fatalf("Last = %q after %d builds", r.Last().Query, builds)
	}
}

func TestRingTracerClamp(t *testing.T) {
	r := NewRingTracer(0)
	r.TraceQuery(&QueryTrace{Query: "a"})
	r.TraceQuery(&QueryTrace{Query: "b"})
	if got := r.Traces(); len(got) != 1 || got[0].Query != "b" {
		t.Fatalf("Traces = %v", got)
	}
}

func TestCollectorPartition(t *testing.T) {
	c := NewCollector()
	c.RecordQuery("sqo", "", time.Millisecond)
	c.RecordQuery("sqo", "timeout", 2*time.Millisecond)
	c.RecordQuery("dqo", "", 500*time.Microsecond)
	c.RecordQuery("dqo", "other", time.Second)
	c.RecordQuery("dqo", "other", time.Second)
	s := c.Snapshot()
	if s.Queries != 5 || s.OK != 2 {
		t.Fatalf("Queries=%d OK=%d", s.Queries, s.OK)
	}
	var errSum int64
	for _, n := range s.Errors {
		errSum += n
	}
	if s.OK+errSum != s.Queries {
		t.Fatalf("partition broken: OK=%d + errs=%d != %d", s.OK, errSum, s.Queries)
	}
	if s.Modes["dqo"].Errors["other"] != 2 {
		t.Fatalf("dqo/other = %d, want 2", s.Modes["dqo"].Errors["other"])
	}
	if s.LatencyCount != 5 {
		t.Fatalf("LatencyCount = %d", s.LatencyCount)
	}
	var bucketSum int64
	for _, b := range s.LatencyBuckets {
		bucketSum += b.Count
	}
	if bucketSum != 5 {
		t.Fatalf("bucket sum = %d, want 5", bucketSum)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				kind := ""
				if i%3 == 0 {
					kind = "timeout"
				}
				c.RecordQuery("sqo", kind, time.Duration(i)*time.Microsecond)
				c.RecordAdmissionWait(time.Microsecond)
				c.AddAlternatives(2)
				c.ObserveMemPeak(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Queries != 800 {
		t.Fatalf("Queries = %d, want 800", s.Queries)
	}
	if s.OK+s.Errors["timeout"] != 800 {
		t.Fatalf("partition: OK=%d timeout=%d", s.OK, s.Errors["timeout"])
	}
	if s.AdmissionWaits != 800 || s.OptimizerAlternatives != 1600 {
		t.Fatalf("waits=%d alts=%d", s.AdmissionWaits, s.OptimizerAlternatives)
	}
	if s.MemHighWater != 7099 {
		t.Fatalf("MemHighWater = %d, want 7099", s.MemHighWater)
	}
}

func TestWritePromShape(t *testing.T) {
	c := NewCollector()
	c.RecordQuery("dqo", "", 3*time.Millisecond)
	c.RecordQuery("sqo", "memory_budget", 40*time.Millisecond)
	s := c.Snapshot()
	s.PlanCacheHits = 7
	s.PlanCacheMisses = 3
	s.AdmissionRunning = 1
	s.Morsels = 42
	s.MorselRows = 1000
	var b strings.Builder
	if err := s.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`dqo_queries_total{mode="dqo",status="ok"} 1`,
		`dqo_queries_total{mode="sqo",status="memory_budget"} 1`,
		`dqo_query_duration_seconds_bucket{le="+Inf"} 2`,
		`dqo_query_duration_seconds_count 2`,
		`dqo_plan_cache_hits_total 7`,
		`dqo_plan_cache_misses_total 3`,
		`dqo_admission_running 1`,
		`dqo_exec_morsels_total 42`,
		`dqo_exec_rows_total 1000`,
		`dqo_mem_highwater_bytes 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and non-decreasing.
	prev := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "dqo_query_duration_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
			// +Inf and float bounds both print integers via %g for whole counts.
			var f float64
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &f)
			n = int64(f)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative: %d after %d\n%s", n, prev, out)
		}
		prev = n
	}
}

func TestWritePromDeterministic(t *testing.T) {
	c := NewCollector()
	for _, mode := range []string{"dqo", "sqo", "dqo-calibrated"} {
		c.RecordQuery(mode, "", time.Millisecond)
		c.RecordQuery(mode, "timeout", time.Millisecond)
		c.RecordQuery(mode, "cancelled", time.Millisecond)
	}
	var a, b strings.Builder
	s := c.Snapshot()
	if err := s.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exposition not deterministic")
	}
}

func TestRenderAnalyze(t *testing.T) {
	rows := []AnalyzeRow{
		{Label: "Group(a)", Depth: 0, HasEst: true,
			EstRows: 100, EstCost: 50, EstBytes: 4096,
			ActRows: 200, ActSelf: 2 * time.Millisecond, ActWall: 5 * time.Millisecond,
			ActBytes: 8192, Batches: 3, DOP: 1},
		{Label: "Limit(10)", Depth: 1, HasEst: false,
			ActRows: 10, ActSelf: time.Microsecond, DOP: 1},
		{Label: "Scan(t)", Depth: 1, HasEst: true,
			EstRows: 1000, EstCost: 50, EstBytes: 0,
			ActRows: 1000, ActSelf: 2 * time.Millisecond, ActWall: 3 * time.Millisecond,
			ActBytes: 0, Batches: 3, DOP: 1},
	}
	out := RenderAnalyze(rows, 5*time.Millisecond)
	if !strings.Contains(out, "operator") || !strings.Contains(out, "rows_x") {
		t.Fatalf("missing header:\n%s", out)
	}
	// 200 actual vs 100 estimated rows → 2.00x.
	if !strings.Contains(out, "2.00x") {
		t.Fatalf("missing rows misestimation factor:\n%s", out)
	}
	// Equal cost shares and equal self times → time_x 1.00x on both.
	if strings.Count(out, "1.00x") < 2 {
		t.Fatalf("expected calibrated time factors of 1.00x:\n%s", out)
	}
	// Executor-only row renders dashes for estimates.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Limit(10)") && !strings.Contains(line, "-") {
			t.Fatalf("executor-only row should show '-':\n%s", out)
		}
	}
	if !strings.Contains(out, "total: 5ms") {
		t.Fatalf("missing total:\n%s", out)
	}
}

func TestFactor(t *testing.T) {
	if got := factor(0, 0); got != "1.00x" {
		t.Fatalf("factor(0,0) = %q", got)
	}
	if got := factor(5, 0); got != "-" {
		t.Fatalf("factor(5,0) = %q", got)
	}
	if got := factor(3, 2); got != "1.50x" {
		t.Fatalf("factor(3,2) = %q", got)
	}
}

func TestFmtBytes(t *testing.T) {
	if got := FmtBytes(512); got != "512B" {
		t.Fatalf("FmtBytes(512) = %q", got)
	}
	if got := FmtBytes(2048); got != "2.0KiB" {
		t.Fatalf("FmtBytes(2048) = %q", got)
	}
	if got := FmtBytes(3 << 20); got != "3.0MiB" {
		t.Fatalf("FmtBytes(3MiB) = %q", got)
	}
}
