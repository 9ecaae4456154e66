package dqo

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"dqo/internal/exec"
	"dqo/internal/obs"
)

// Tracer receives one QueryTrace per finished query (successful or not).
// Implementations must be safe for concurrent use; TraceQuery runs after
// the query completes, never on the execution hot path.
type Tracer = obs.Tracer

// QueryTrace is the complete span-tree record of one query's lifecycle.
type QueryTrace = obs.QueryTrace

// Span is one timed node of a query trace: a lifecycle phase or, under the
// "execute" phase, one physical operator.
type Span = obs.Span

// RingTracer is the built-in Tracer: an in-memory ring buffer keeping the
// traces of the last N queries. Every DB opens with one (size 32).
type RingTracer = obs.RingTracer

// NewRingTracer returns a ring tracer retaining the last n query traces.
func NewRingTracer(n int) *RingTracer { return obs.NewRingTracer(n) }

// MetricsSnapshot is a point-in-time view of a DB's cumulative metrics; see
// DB.Metrics. Its WriteProm method emits the Prometheus text exposition.
type MetricsSnapshot = obs.Snapshot

// SetTracer installs the DB's tracer; every query's trace is delivered to
// it unless the query overrides with WithTracer. nil disables tracing.
func (db *DB) SetTracer(t Tracer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tracer = t
}

// Tracer returns the DB's current tracer (nil when tracing is disabled).
func (db *DB) Tracer() Tracer {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tracer
}

// LastTrace returns the most recent query trace when the DB's tracer is the
// built-in ring tracer (the default), nil otherwise.
func (db *DB) LastTrace() *QueryTrace {
	if ring, ok := db.Tracer().(*RingTracer); ok {
		return ring.Last()
	}
	return nil
}

// Metrics returns a consistent snapshot of the DB's cumulative metrics:
// query counts by mode and error kind (the kinds exactly partition the
// failures), the end-to-end latency histogram, admission gate activity,
// plan-cache hit rate, optimiser alternatives enumerated, executor morsel
// counters, and the memory high-water mark.
func (db *DB) Metrics() MetricsSnapshot {
	s := db.metrics.Snapshot()
	s.PlanCacheHits, s.PlanCacheMisses = db.planCache.Stats()
	g := db.gate()
	s.AdmissionRunning = g.Running()
	s.AdmissionQueued = g.Queued()
	s.Morsels = db.execCounters.Morsels.Load()
	s.MorselRows = db.execCounters.Rows.Load()
	s.AVAdopted, s.AVDeclined, s.AVBytes = db.avs.Adoption()
	return s
}

// WriteMetrics writes the current metrics snapshot to w in the Prometheus
// text exposition format.
func (db *DB) WriteMetrics(w io.Writer) error {
	return db.Metrics().WriteProm(w)
}

// phaseTimes are the measured lifecycle phase durations of one query, plus
// the planning-tier facts the optimise phase records (chosen tier, beam
// width, plan-cache outcome).
type phaseTimes struct {
	parse     time.Duration
	bind      time.Duration
	optimise  time.Duration
	compile   time.Duration
	admission time.Duration
	execute   time.Duration
	cacheHit  bool
	tier      string // planning tier: "greedy", "beam", "deep", "shallow"
	beam      int    // beam width (0 = exact enumeration)
	feedback  bool   // the optimiser planned through the DB's feedback store
	fbVersion uint64 // feedback store version the plan was built against
	// adopted lists the Algorithmic Views this execution's join tables were
	// adopted as: the reason the statement's next execution plans differently.
	adopted []string
}

// dur returns the phase durations in obs.Phases() order.
func (p *phaseTimes) dur() [6]time.Duration {
	return [6]time.Duration{p.parse, p.bind, p.optimise, p.compile, p.admission, p.execute}
}

// observe records one finished query into the DB's metrics and delivers its
// trace. It runs on every return path — a parse error and a morsel-level
// abort both count — which is what keeps Metrics' partition invariant
// (queries == ok + sum of error kinds) exact.
func (db *DB) observe(tracer Tracer, mode Mode, query string, start time.Time,
	total time.Duration, pt *phaseTimes, res *Result, err error) {
	db.metrics.RecordQuery(mode.String(), obs.KindLabel(err), total)
	if peak := resultPeakBytes(res); peak > 0 {
		db.metrics.ObserveMemPeak(peak)
	}
	if res != nil {
		if n := res.SpilledBytes(); n > 0 {
			db.metrics.ObserveSpill(n)
		}
	}
	if res != nil {
		res.phases = *pt
	}
	if tracer == nil {
		return
	}
	trace := &lazyTrace{phases: *pt, trace: obs.QueryTrace{
		Query: query, Mode: mode.String(), Start: start, Total: total, Err: obs.KindLabel(err),
	}}
	if res != nil {
		trace.snap = res.snap
		res.trace = trace
	}
	// The default ring evicts most traces unread, so for a query that ran a
	// cached plan it takes the source and builds the span tree only when
	// somebody looks. The source holds the plan its labels render from: a
	// cached plan is alive anyway, but a freshly enumerated one is a few
	// kilobytes of pointers that thirty-two pending traces would keep
	// reachable (measured: +9 % on adhoc-plan's p50, all of it in the
	// collector's mark phase), and next to enumeration the tree costs
	// nothing — so that query, like any other tracer's, gets it built now.
	if ring, ok := tracer.(*obs.RingTracer); ok && pt.cacheHit {
		ring.Defer(trace)
		return
	}
	tracer.TraceQuery(trace.Trace())
}

// lazyTrace is one finished query's trace with its span tree still to be
// built, on first read, from the phase times and the operators' counters
// (with the plan nodes their labels render from). It does not hold the
// query's result.
type lazyTrace struct {
	trace  obs.QueryTrace // Root is set by the first Trace call
	phases phaseTimes
	snap   exec.Snapshot
	once   sync.Once
}

// Trace implements obs.Deferred.
func (l *lazyTrace) Trace() *obs.QueryTrace {
	l.once.Do(func() {
		l.trace.Root = buildSpans(l.trace.Total, &l.phases, l.snap.Profile())
		l.snap = exec.Snapshot{} // the plan is no longer needed
	})
	return &l.trace
}

// resultPeakBytes is the query's measured memory peak: the budget's
// high-water mark when one was installed, else the largest per-operator
// peak in the profile.
func resultPeakBytes(res *Result) int64 {
	if res == nil {
		return 0
	}
	if res.memPeak > 0 {
		return res.memPeak
	}
	var max int64
	for _, s := range res.snap.Counters() {
		if s.PeakBytes > max {
			max = s.PeakBytes
		}
	}
	return max
}

// buildSpans assembles the span tree of one query: a root "query" span with
// one child per lifecycle phase, and the per-operator span tree (rebuilt
// from the execution profile) under the execute phase.
func buildSpans(total time.Duration, pt *phaseTimes, profile exec.Profile) *obs.Span {
	root := &obs.Span{Name: "query", Dur: total}
	offset := time.Duration(0)
	durs := pt.dur()
	for i, name := range obs.Phases() {
		sp := &obs.Span{Name: name, Start: offset, Dur: durs[i]}
		if name == obs.PhaseOptimise && pt.tier != "" {
			// Planning-time attribution: which tier planned this query, at
			// what beam width, and whether the template cache answered.
			sp.SetAttr("tier", pt.tier)
			if pt.beam > 0 {
				sp.SetAttr("beam", fmt.Sprintf("%d", pt.beam))
			}
			if pt.cacheHit {
				sp.SetAttr("plan-cache", "hit")
			}
			if pt.feedback {
				sp.SetAttr("feedback", fmt.Sprintf("v%d", pt.fbVersion))
			}
		}
		offset += durs[i]
		root.Children = append(root.Children, sp)
	}
	execSpan := root.Children[len(root.Children)-1]
	if len(pt.adopted) > 0 {
		execSpan.SetAttr("av-adopted", strings.Join(pt.adopted, ","))
	}
	if len(profile) > 0 {
		execSpan.Children = profileSpans(profile, execSpan.Start)
	}
	return root
}

// profileSpans rebuilds the operator tree from a pre-order profile using the
// recorded depths. Operators pull from each other synchronously, so no
// per-operator start offset was recorded; children inherit the execute
// phase's start.
func profileSpans(prof exec.Profile, start time.Duration) []*obs.Span {
	var roots []*obs.Span
	stack := make([]*obs.Span, 0, 8) // stack[d] = last span seen at depth d
	for _, s := range prof {
		sp := &obs.Span{
			Name:      s.Label,
			Start:     start,
			Dur:       s.Wall,
			Rows:      s.RowsOut,
			Batches:   s.Batches,
			DOP:       s.DOP,
			PeakBytes: s.PeakBytes,
		}
		if s.Replans > 0 {
			sp.SetAttr("replanned", fmt.Sprintf("%d", s.Replans))
		}
		if s.SpillBytes > 0 {
			sp.SetAttr("spilled", fmt.Sprintf("%d parts, %s", s.SpillParts, obs.FmtBytes(s.SpillBytes)))
		}
		if s.Depth < 0 || s.Depth > len(stack) {
			continue // malformed profile; skip rather than panic
		}
		stack = stack[:s.Depth]
		if s.Depth == 0 {
			roots = append(roots, sp)
		} else {
			parent := stack[s.Depth-1]
			parent.Children = append(parent.Children, sp)
		}
		stack = append(stack, sp)
	}
	return roots
}
