package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// latencyBounds are the upper bounds of the query-latency histogram
// buckets; an implicit +Inf bucket follows the last bound.
var latencyBounds = []time.Duration{
	250 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second,
	10 * time.Second, 30 * time.Second,
}

// Collector accumulates DB-lifetime query metrics. All recording methods
// are called once per query (never per morsel) and are safe for concurrent
// use; a single mutex guards the whole state, so a Snapshot is internally
// consistent — the per-kind error counts always sum to the total.
type Collector struct {
	mu           sync.Mutex
	modes        map[string]*modeCount
	latency      []int64 // per-bucket counts, +Inf last
	latencyCount int64
	latencySum   time.Duration
	admWaits     int64
	admWait      time.Duration
	alternatives int64
	memHighWater int64
	spillQueries int64
	spillBytes   int64
}

type modeCount struct {
	ok   int64
	errs map[string]int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		modes:   make(map[string]*modeCount),
		latency: make([]int64, len(latencyBounds)+1),
	}
}

// RecordQuery counts one finished query: its optimisation mode, its error
// kind label ("" for success, see KindLabel), and its end-to-end latency.
func (c *Collector) RecordQuery(mode, kind string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mc := c.modes[mode]
	if mc == nil {
		mc = &modeCount{errs: make(map[string]int64)}
		c.modes[mode] = mc
	}
	if kind == "" {
		mc.ok++
	} else {
		mc.errs[kind]++
	}
	i := sort.Search(len(latencyBounds), func(i int) bool { return d <= latencyBounds[i] })
	c.latency[i]++
	c.latencyCount++
	c.latencySum += d
}

// RecordAdmissionWait counts one pass through the admission gate and the
// time spent waiting for a slot.
func (c *Collector) RecordAdmissionWait(d time.Duration) {
	c.mu.Lock()
	c.admWaits++
	c.admWait += d
	c.mu.Unlock()
}

// AddAlternatives credits physical alternatives enumerated by one
// optimisation run (plan-cache hits credit nothing: no enumeration ran).
func (c *Collector) AddAlternatives(n int) {
	c.mu.Lock()
	c.alternatives += int64(n)
	c.mu.Unlock()
}

// ObserveMemPeak raises the DB-lifetime memory high-water mark to at least
// the given per-query peak.
func (c *Collector) ObserveMemPeak(bytes int64) {
	c.mu.Lock()
	if bytes > c.memHighWater {
		c.memHighWater = bytes
	}
	c.mu.Unlock()
}

// ObserveSpill counts one query that spilled to disk and the run-file bytes
// it wrote (cumulative across all of its spilling operators).
func (c *Collector) ObserveSpill(bytes int64) {
	c.mu.Lock()
	c.spillQueries++
	c.spillBytes += bytes
	c.mu.Unlock()
}

// Snapshot returns a consistent copy of the collected metrics. The
// DB-level gauges (admission queue/running, plan-cache counters, executor
// morsel counters) are zero here; DB.Metrics fills them in.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Errors:                make(map[string]int64),
		Modes:                 make(map[string]ModeSnapshot, len(c.modes)),
		LatencyBuckets:        make([]LatencyBucket, 0, len(c.latency)),
		LatencyCount:          c.latencyCount,
		LatencySum:            c.latencySum,
		AdmissionWaits:        c.admWaits,
		AdmissionWait:         c.admWait,
		OptimizerAlternatives: c.alternatives,
		MemHighWater:          c.memHighWater,
		SpilledQueries:        c.spillQueries,
		SpilledBytes:          c.spillBytes,
	}
	for mode, mc := range c.modes {
		ms := ModeSnapshot{OK: mc.ok, Errors: make(map[string]int64, len(mc.errs))}
		ms.Total = mc.ok
		for k, n := range mc.errs {
			ms.Errors[k] = n
			ms.Total += n
			s.Errors[k] += n
		}
		s.Modes[mode] = ms
		s.Queries += ms.Total
		s.OK += mc.ok
	}
	for i, n := range c.latency {
		le := time.Duration(0) // 0 marks the +Inf bucket
		if i < len(latencyBounds) {
			le = latencyBounds[i]
		}
		s.LatencyBuckets = append(s.LatencyBuckets, LatencyBucket{Le: le, Count: n})
	}
	return s
}

// ModeSnapshot is one optimisation mode's query counts.
type ModeSnapshot struct {
	Total  int64
	OK     int64
	Errors map[string]int64 // by kind label; sums to Total-OK
}

// LatencyBucket is one histogram bucket: the count of queries with latency
// <= Le (Le == 0 marks the +Inf bucket). Counts are per-bucket, not
// cumulative; the exposition writer cumulates.
type LatencyBucket struct {
	Le    time.Duration
	Count int64
}

// Snapshot is a point-in-time view of a DB's metrics. Counter semantics:
// Queries == OK + sum over Errors — the error kinds exactly partition the
// failed queries.
type Snapshot struct {
	Queries int64
	OK      int64
	Errors  map[string]int64 // by kind label, aggregated over modes
	Modes   map[string]ModeSnapshot

	LatencyBuckets []LatencyBucket
	LatencyCount   int64
	LatencySum     time.Duration

	AdmissionWaits   int64         // queries that passed the gate
	AdmissionWait    time.Duration // cumulative time waiting for a slot
	AdmissionRunning int           // gauge: queries holding a slot now
	AdmissionQueued  int           // gauge: queries waiting now

	PlanCacheHits   int
	PlanCacheMisses int

	OptimizerAlternatives int64 // cumulative alternatives costed

	Morsels    int64 // morsel batches consumed at pipeline boundaries
	MorselRows int64 // rows in those batches

	MemHighWater int64 // bytes: largest per-query peak seen

	SpilledQueries int64 // queries that wrote at least one spill run file
	SpilledBytes   int64 // cumulative run-file bytes written by those queries

	AVAdopted  int64 // join tables adopted as Algorithmic Views
	AVDeclined int64 // offered tables declined because the budget was full
	AVBytes    int64 // gauge: bytes the adopted views hold now
}

// WriteProm writes the snapshot in the Prometheus text exposition format.
// Output is deterministic: label values are sorted.
func (s Snapshot) WriteProm(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pf("# HELP dqo_queries_total Queries finished, by optimisation mode and status.\n")
	pf("# TYPE dqo_queries_total counter\n")
	for _, mode := range sortedKeys(s.Modes) {
		ms := s.Modes[mode]
		pf("dqo_queries_total{mode=%q,status=\"ok\"} %d\n", mode, ms.OK)
		for _, kind := range sortedKeys(ms.Errors) {
			pf("dqo_queries_total{mode=%q,status=%q} %d\n", mode, kind, ms.Errors[kind])
		}
	}
	pf("# HELP dqo_query_duration_seconds End-to-end query latency.\n")
	pf("# TYPE dqo_query_duration_seconds histogram\n")
	cum := int64(0)
	for _, b := range s.LatencyBuckets {
		cum += b.Count
		if b.Le == 0 {
			pf("dqo_query_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
		} else {
			pf("dqo_query_duration_seconds_bucket{le=%q} %g\n", fmt.Sprintf("%g", b.Le.Seconds()), float64(cum))
		}
	}
	pf("dqo_query_duration_seconds_sum %g\n", s.LatencySum.Seconds())
	pf("dqo_query_duration_seconds_count %d\n", s.LatencyCount)
	pf("# HELP dqo_admission_wait_seconds_total Time spent waiting for an admission slot.\n")
	pf("# TYPE dqo_admission_wait_seconds_total counter\n")
	pf("dqo_admission_wait_seconds_total %g\n", s.AdmissionWait.Seconds())
	pf("# TYPE dqo_admission_passes_total counter\n")
	pf("dqo_admission_passes_total %d\n", s.AdmissionWaits)
	pf("# TYPE dqo_admission_running gauge\n")
	pf("dqo_admission_running %d\n", s.AdmissionRunning)
	pf("# TYPE dqo_admission_queued gauge\n")
	pf("dqo_admission_queued %d\n", s.AdmissionQueued)
	pf("# HELP dqo_plan_cache_hits_total Plan-cache hits (and misses below).\n")
	pf("# TYPE dqo_plan_cache_hits_total counter\n")
	pf("dqo_plan_cache_hits_total %d\n", s.PlanCacheHits)
	pf("# TYPE dqo_plan_cache_misses_total counter\n")
	pf("dqo_plan_cache_misses_total %d\n", s.PlanCacheMisses)
	pf("# HELP dqo_optimizer_alternatives_total Physical plan alternatives costed.\n")
	pf("# TYPE dqo_optimizer_alternatives_total counter\n")
	pf("dqo_optimizer_alternatives_total %d\n", s.OptimizerAlternatives)
	pf("# HELP dqo_exec_morsels_total Morsel batches consumed at pipeline boundaries.\n")
	pf("# TYPE dqo_exec_morsels_total counter\n")
	pf("dqo_exec_morsels_total %d\n", s.Morsels)
	pf("# TYPE dqo_exec_rows_total counter\n")
	pf("dqo_exec_rows_total %d\n", s.MorselRows)
	pf("# HELP dqo_mem_highwater_bytes Largest per-query memory peak observed.\n")
	pf("# TYPE dqo_mem_highwater_bytes gauge\n")
	pf("dqo_mem_highwater_bytes %d\n", s.MemHighWater)
	pf("# HELP dqo_spill_queries_total Queries that spilled at least one run file to disk.\n")
	pf("# TYPE dqo_spill_queries_total counter\n")
	pf("dqo_spill_queries_total %d\n", s.SpilledQueries)
	pf("# HELP dqo_spill_bytes_total Run-file bytes written by spilling queries.\n")
	pf("# TYPE dqo_spill_bytes_total counter\n")
	pf("dqo_spill_bytes_total %d\n", s.SpilledBytes)
	pf("# HELP dqo_av_adopted_total Join tables adopted as Algorithmic Views (declined: budget full).\n")
	pf("# TYPE dqo_av_adopted_total counter\n")
	pf("dqo_av_adopted_total %d\n", s.AVAdopted)
	pf("# TYPE dqo_av_declined_total counter\n")
	pf("dqo_av_declined_total %d\n", s.AVDeclined)
	pf("# HELP dqo_av_bytes Bytes held by adopted Algorithmic Views.\n")
	pf("# TYPE dqo_av_bytes gauge\n")
	pf("dqo_av_bytes %d\n", s.AVBytes)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
