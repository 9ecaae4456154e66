package dqo

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dqo/internal/av"
	"dqo/internal/core"
	"dqo/internal/exec"
	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/logical"
	"dqo/internal/obs"
	"dqo/internal/physio"
	"dqo/internal/qerr"
	"dqo/internal/sql"
	"dqo/internal/storage"
)

// Mode selects how queries are optimised.
type Mode uint8

// Optimisation modes.
const (
	// ModeSQO is the shallow baseline: opaque textbook physical operators,
	// sortedness as the only tracked plan property, Table 2 cost model.
	ModeSQO Mode = iota
	// ModeDQO unnests operators to molecule granularity and tracks the full
	// property vector (density, clustering, correlations), Table 2 cost
	// model — the paper's Figure 5 configuration.
	ModeDQO
	// ModeDQOCalibrated is ModeDQO with the molecule-aware calibrated cost
	// model, letting the optimiser discriminate hash functions, sort
	// algorithms, and loop parallelism.
	ModeDQOCalibrated
	// ModeGreedy is the fast planning tier: the deep granule vocabulary and
	// calibrated model of ModeDQOCalibrated, but a single greedy pass
	// instead of dynamic programming — join build/probe roles ordered by
	// visible selectivity (literal predicates, cracked-index ranges, AV
	// availability), one cost-model probe per candidate granule, and early
	// exit on provably-empty intermediates. Planning cost is linear in the
	// plan shape; plan quality tracks the DP tiers when selectivity is
	// visible in the query itself.
	ModeGreedy
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeSQO:
		return "sqo"
	case ModeDQO:
		return "dqo"
	case ModeDQOCalibrated:
		return "dqo-calibrated"
	case ModeGreedy:
		return "greedy"
	default:
		return "unknown"
	}
}

func (m Mode) coreMode() (core.Mode, error) {
	switch m {
	case ModeSQO:
		return core.SQO(), nil
	case ModeDQO:
		return core.DQO(), nil
	case ModeDQOCalibrated:
		return core.DQOCalibrated(), nil
	case ModeGreedy:
		return core.Greedy(), nil
	default:
		return core.Mode{}, fmt.Errorf("dqo: unknown mode %d", uint8(m))
	}
}

// DB is an in-memory database: a set of registered tables, an Algorithmic
// View catalog, a plan cache, and the query-lifecycle observability state
// (tracer, metrics, executor counters).
type DB struct {
	mu         sync.RWMutex
	tables     map[string]*storage.Relation
	avs        *av.Catalog
	planCache  *av.PlanCache
	cachePlans bool
	admission  *govern.Gate

	tracer       obs.Tracer     // guarded by mu; nil = tracing off
	metrics      *obs.Collector // internally synchronised
	execCounters exec.Counters  // atomic; ticked per morsel by the executor

	// catalogEpoch counts the changes to what a statement binds against:
	// the registered tables, their storage, and the identity of the view
	// catalog. Prepared statements keep their bound form per epoch, and
	// plan-cache keys carry it.
	catalogEpoch atomic.Uint64
}

// catalogChanged retires everything derived from the catalog as it was:
// cached plans, the bound form of prepared statements (by moving the epoch
// on), and the pending traces of the default ring tracer, whose plans refer
// to the tables being replaced. Callers hold db.mu.
func (db *DB) catalogChanged() {
	db.catalogEpoch.Add(1)
	db.planCache.Clear()
	if ring, ok := db.tracer.(*obs.RingTracer); ok {
		ring.Settle()
	}
}

// SetAdmission installs a DB-level admission gate: at most maxActive
// queries execute at once, at most maxQueue more wait for a slot, and
// anything beyond that is rejected immediately with ErrQueueFull. A query
// whose context dies while queued returns ErrCancelled/ErrTimeout without
// ever running. maxActive <= 0 removes the gate (unlimited admission).
func (db *DB) SetAdmission(maxActive, maxQueue int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.admission = govern.NewGate(maxActive, maxQueue)
}

func (db *DB) gate() *govern.Gate {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.admission
}

// defaultTraceRing is how many query traces the DB's default ring tracer
// retains.
const defaultTraceRing = 32

// Open returns an empty database. Tracing starts enabled with the built-in
// ring tracer (last 32 queries; see SetTracer) and metrics collection is
// always on — both record once per query, off the morsel hot path.
func Open() *DB {
	return &DB{
		tables:    make(map[string]*storage.Relation),
		avs:       av.NewCatalog(),
		planCache: av.NewPlanCache(),
		tracer:    obs.NewRingTracer(defaultTraceRing),
		metrics:   obs.NewCollector(),
	}
}

// Register adds a table. Re-registering a name replaces the table,
// invalidates cached plans, and drops Algorithmic Views materialised from
// the old data (they would be stale). Prepared statements stay valid: their
// next execution binds to the new table.
func (db *DB) Register(t *Table) error {
	if t == nil || t.rel == nil {
		return fmt.Errorf("dqo: Register of nil table")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	name := t.rel.Name()
	if _, existed := db.tables[name]; existed {
		db.avs.DropTable(name)
	}
	db.tables[name] = t.rel
	db.catalogChanged()
	return nil
}

// CompressTable re-encodes a table's columns into compressed column
// segments — dictionary-RLE, bit-packing, or frame-of-reference, auto-chosen
// per column by encoded size; columns that would not shrink stay plain. The
// logical contents are unchanged, so every query returns byte-identical
// results, but the optimiser sees the encodings as per-column compression
// properties and may choose direct-on-compressed granules (zone-map segment
// skipping, run-aware filtering) where the cost model favours them. Cached
// plans are invalidated; Algorithmic Views stay valid because row positions
// are unchanged.
func (db *DB) CompressTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	rel, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("dqo: unknown table %q", name)
	}
	db.tables[name] = rel.Compress()
	db.catalogChanged()
	return nil
}

// DecompressTable restores a table to plain column storage, decoding any
// compressed segments. Inverse of CompressTable; cached plans are
// invalidated.
func (db *DB) DecompressTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	rel, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("dqo: unknown table %q", name)
	}
	db.tables[name] = rel.Materialize()
	db.catalogChanged()
	return nil
}

// DescribeStorage renders the physical storage of a table's columns — the
// dqoshell \storage view: per-column encoding, segment and run counts,
// stored vs plain bytes, compression ratio, and zone-map coverage. An empty
// name describes every registered table.
func (db *DB) DescribeStorage(name string) (string, error) {
	db.mu.RLock()
	var rels []*storage.Relation
	if name == "" {
		for _, n := range sortedKeys(db.tables) {
			rels = append(rels, db.tables[n])
		}
	} else if rel, ok := db.tables[name]; ok {
		rels = append(rels, rel)
	}
	db.mu.RUnlock()
	if len(rels) == 0 {
		if name == "" {
			return "no tables registered\n", nil
		}
		return "", fmt.Errorf("dqo: unknown table %q", name)
	}
	var b strings.Builder
	for i, rel := range rels {
		if i > 0 {
			b.WriteString("\n")
		}
		renderStorage(&b, rel)
	}
	return b.String(), nil
}

// renderStorage writes one table's column-storage report.
func renderStorage(b *strings.Builder, rel *storage.Relation) {
	info := rel.StorageInfo()
	var plain, stored int64
	for _, cs := range info {
		plain += cs.PlainBytes
		stored += cs.StoredBytes
	}
	ratio := 1.0
	if stored > 0 {
		ratio = float64(plain) / float64(stored)
	}
	fmt.Fprintf(b, "table %s (%d rows, %s stored, %.2fx)\n",
		rel.Name(), rel.NumRows(), obs.FmtBytes(stored), ratio)
	fmt.Fprintf(b, "  %-16s %-8s %-8s %9s %9s %12s %7s %6s\n",
		"column", "kind", "encoding", "segments", "runs", "bytes", "ratio", "zones")
	for _, cs := range info {
		segs, runs, zones := "-", "-", "-"
		if cs.Encoding != storage.EncNone {
			segs = fmt.Sprintf("%d", cs.Segments)
			zones = "100%"
			if cs.Encoding == storage.EncDictRLE {
				runs = fmt.Sprintf("%d", cs.Runs)
			}
		}
		fmt.Fprintf(b, "  %-16s %-8s %-8s %9s %9s %12s %6.2fx %6s\n",
			cs.Name, cs.Kind, cs.Encoding, segs, runs, obs.FmtBytes(cs.StoredBytes), cs.Ratio(), zones)
	}
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(m map[string]*storage.Relation) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table returns a registered table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rel, ok := db.tables[name]
	if !ok {
		return nil, false
	}
	return &Table{rel: rel}, true
}

// Tables returns the registered table names.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	return out
}

// EnablePlanCache turns the plan-level Algorithmic View on or off: with it
// enabled, repeated query shapes skip enumeration entirely — the cache is
// keyed on the statement's normalized fingerprint (literals stripped to
// parameter slots) and a hit rebinds the new literals into the cached plan
// (the offline vs query-time trade-off of paper Section 3). Disabling drops
// every entry and zeroes the hit/miss counters, so the exported Prometheus
// hit ratio reflects only periods the cache was live instead of continuing
// to skew from stale counts.
func (db *DB) EnablePlanCache(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cachePlans = on
	if !on {
		db.planCache.Clear()
		db.planCache.ResetStats()
	}
}

// PlanCacheStats returns plan cache hits and misses.
func (db *DB) PlanCacheStats() (hits, misses int) { return db.planCache.Stats() }

// catalogView adapts the table map to the SQL binder's catalog interface.
type catalogView struct{ db *DB }

func (c catalogView) Table(name string) (*storage.Relation, bool) {
	c.db.mu.RLock()
	defer c.db.mu.RUnlock()
	rel, ok := c.db.tables[name]
	return rel, ok
}

// planTier names the planning tier a core mode resolves to, for span
// attributes and EXPLAIN ANALYZE headers.
func planTier(cm core.Mode) string {
	switch {
	case cm.Greedy:
		return "greedy"
	case cm.Beam > 0:
		return "beam"
	case cm.Depth == physio.Deep:
		return "deep"
	default:
		return "shallow"
	}
}

// compile parses, binds, and optimises a query, recording the phase
// durations into pt (which may be nil). cfg.workers > 0 overrides the
// degree of parallelism offered to the optimiser's enumeration (0 keeps the
// mode's default); cfg.memLimit > 0 makes the optimiser prune plan
// alternatives whose estimated peak memory exceeds it; cfg.beam > 0 caps
// the DP table to the beam width.
func (db *DB) compile(mode Mode, query string, cfg queryConfig, pt *phaseTimes) (*core.Result, *sql.SelectStmt, error) {
	if pt == nil {
		pt = &phaseTimes{}
	}
	var (
		stmt  *sql.SelectStmt
		node  logical.Node
		cm    core.Mode
		shape string // "mode|fingerprint": the head of the statement's plan-cache keys
		epoch uint64 // the catalog the statement was bound against
	)
	if p := cfg.prepared; p != nil {
		// Parsed at Prepare and bound once per catalog epoch: an execution
		// only substitutes its arguments into the bound tree's filters.
		t0 := time.Now()
		b, err := p.bind()
		if err != nil {
			pt.bind = time.Since(t0)
			return nil, nil, err
		}
		node = sql.BindTree(b.node, cfg.args)
		pt.bind = time.Since(t0)
		stmt, cm, shape, epoch = p.tmpl, b.mode, p.fingerprint, b.epoch
	} else {
		t0 := time.Now()
		var err error
		stmt, err = sql.Parse(query)
		pt.parse = time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		epoch = db.catalogEpoch.Load()
		t0 = time.Now()
		node, err = sql.Bind(stmt, catalogView{db})
		pt.bind = time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		if cm, err = mode.coreMode(); err != nil {
			return nil, nil, err
		}
		cm = db.overViews(cm, stmt)
	}
	if cfg.workers > 0 {
		cm.DOP = cfg.workers
	}
	if cfg.memLimit > 0 {
		cm.MemBudget = cfg.memLimit
	}
	if cfg.spillDir != "" {
		// With a spill directory armed, over-budget breaker sites enumerate
		// disk-backed twins instead of keeping a plan the runtime budget
		// aborts. No-op without a MemBudget (nothing is ever over budget).
		cm.Spill = true
	}
	if cfg.beam > 0 {
		cm = cm.WithBeam(cfg.beam)
	}

	db.mu.RLock()
	useCache := db.cachePlans || cfg.prepared != nil
	db.mu.RUnlock()
	pt.tier = planTier(cm)
	pt.beam = cm.Beam

	t0 := time.Now()
	var res *core.Result
	var err error
	hit := false
	if useCache {
		// Template cache: the key starts with the statement's normalized
		// fingerprint (literals stripped to parameter slots), so repeated
		// query shapes hit regardless of their literal values and re-plan by
		// rebinding.
		if shape == "" {
			shape = mode.String() + "|" + sql.Fingerprint(stmt)
		}
		res, hit, err = db.planCache.OptimizeTemplate(planKey(shape, cm, epoch), node, cm)
	} else {
		res, err = core.Optimize(node, cm)
	}
	pt.optimise = time.Since(t0)
	pt.cacheHit = hit
	if err != nil {
		return nil, nil, err
	}
	if !hit {
		// A cache hit rebinds the original enumeration's plan; only fresh
		// optimisation runs add alternatives to the DB counters.
		db.metrics.AddAlternatives(res.Stats.Alternatives)
	}
	return res, stmt, nil
}

// overViews installs the DB's Algorithmic View catalog, seen through the
// statement's table aliases, as the mode's access-path providers.
func (db *DB) overViews(cm core.Mode, stmt *sql.SelectStmt) core.Mode {
	prov := av.Qualified{Cat: db.avs, Aliases: aliasMap(stmt)}
	return cm.WithAVs(prov, prov).WithCracked(prov)
}

// planKey completes a statement's plan-cache key. The chosen plan depends on
// the DOP, memory-budget, beam, and spill dimensions, so the key must too:
// the same shape planned at different worker counts or budgets may pick
// different granules, and an over-budget shape planned with spilling armed
// picks the disk-backed twin. The catalog epoch keeps a plan that was being
// built while a table was replaced from ever answering for the new table.
func planKey(shape string, cm core.Mode, epoch uint64) string {
	var arr [256]byte
	b := append(arr[:0], shape...)
	b = strconv.AppendInt(append(b, "|dop="...), int64(cm.DOP), 10)
	b = strconv.AppendInt(append(b, "|mem="...), cm.MemBudget, 10)
	b = strconv.AppendInt(append(b, "|beam="...), int64(cm.Beam), 10)
	b = strconv.AppendBool(append(b, "|spill="...), cm.Spill)
	b = strconv.AppendUint(append(b, "|cat="...), epoch, 10)
	return string(b)
}

// Query optimises and executes a SQL query under the given mode, through
// the morsel-driven execution layer. It is the primary entry point; tune a
// single query with functional options:
//
//	res, err := db.Query(ctx, dqo.ModeDQO, q,
//	    dqo.WithWorkers(4), dqo.WithMemoryLimit(64<<20), dqo.WithTimeout(time.Second))
//
// Cancelling ctx aborts the query at the next morsel boundary; a LIMIT
// clause runs as an early-exit operator. Every failure is typed —
// errors.Is(err, ErrCancelled / ErrTimeout / ErrMemoryBudgetExceeded /
// ErrQueueFull / ErrInternal) discriminates the cause — and when execution
// fails mid-pipeline the returned *Result is non-nil alongside the error,
// carrying the plan and the partial execution profile (Result.Stats,
// Result.Err). The query's lifecycle is recorded: phase timings and the
// operator span tree go to the DB's tracer (Result.Trace, DB.LastTrace) and
// the outcome into DB.Metrics.
func (db *DB) Query(ctx context.Context, mode Mode, query string, opts ...QueryOption) (*Result, error) {
	return db.run(ctx, mode, query, resolveOptions(opts))
}

// run is the single query path behind Query and Stmt.Query: it executes the
// query with per-phase timing and records the outcome (metrics always, the
// span-tree trace when a tracer is installed).
func (db *DB) run(ctx context.Context, mode Mode, query string, cfg queryConfig) (*Result, error) {
	tracer := db.Tracer()
	if cfg.tracerSet {
		tracer = cfg.tracer
	}
	start := time.Now()
	var pt phaseTimes
	res, err := db.execQuery(ctx, mode, query, cfg, &pt)
	db.observe(tracer, mode, query, start, time.Since(start), &pt, res, err)
	return res, err
}

// execQuery runs one query's lifecycle: parse → bind → optimise → compile →
// admission-wait → execute. Admission is taken after compilation — a
// rejected query pays its optimisation cost but never holds an execution
// slot while optimising, so the gate bounds executing queries only.
func (db *DB) execQuery(ctx context.Context, mode Mode, query string, cfg queryConfig, pt *phaseTimes) (*Result, error) {
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, qerr.From(err)
	}
	res, stmt, err := db.compile(mode, query, cfg, pt)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var rc *core.ReoptConfig
	var root exec.Operator
	if cfg.reopt > 0 {
		rc = &core.ReoptConfig{Mode: res.Mode, Threshold: cfg.reopt}
		root, err = core.CompileReopt(res.Best, rc)
	} else {
		root, err = core.Compile(res.Best)
	}
	pt.compile = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if stmt.Limit >= 0 {
		root = exec.NewLimit(root, stmt.Limit)
	}
	t0 = time.Now()
	release, err := db.gate().Enter(ctx)
	pt.admission = time.Since(t0)
	if err != nil {
		return nil, err
	}
	defer release()
	db.metrics.RecordAdmissionWait(pt.admission)
	var mem *govern.Budget
	if cfg.memLimit > 0 {
		mem = govern.NewBudget(cfg.memLimit)
	}
	ec := exec.NewExecContextBudget(ctx, cfg.morsel, cfg.workers, mem)
	if cfg.spillDir != "" {
		ec.SetSpill(cfg.spillDir, cfg.spillLimit)
	}
	ec.Counters = &db.execCounters
	var taker *tableTaker
	if len(stmt.Joins) > 0 && db.avs.Adopting() {
		taker = &tableTaker{db: db, stmt: stmt}
		ec.Tables = taker
	}
	t0 = time.Now()
	rel, err := exec.Run(ec, root)
	pt.execute = time.Since(t0)
	if taker != nil {
		pt.adopted = taker.adopted
	}
	// The profile is kept as counters; its labels are rendered if and when
	// somebody reads them (Stats, EXPLAIN ANALYZE, a trace).
	out := &Result{plan: res, snap: exec.Snap(root), memPeak: mem.Peak(), replans: replanEvents(rc)}
	if err == nil {
		out.rel, err = applyAliases(rel, stmt)
	}
	if err != nil {
		out.err = err
		return out, err
	}
	return out, nil
}

// replanEvents extracts the splice log of a reoptimising run (nil rc = no
// reoptimisation requested).
func replanEvents(rc *core.ReoptConfig) []ReplanEvent {
	if rc == nil {
		return nil
	}
	return rc.Events()
}

// Explain renders the chosen physical plan for a query: operators,
// estimated costs and cardinalities, and property vectors. Verbosity is
// additive via options — ExplainGranules appends each join/group's granule
// tree, ExplainUnnesting the Figure 3 unnesting chains, and ExplainAnalyze
// executes the query and appends the estimated-vs-measured operator table
// (tune that run with ExplainWith). Without options only the plan is
// rendered and nothing executes.
func (db *DB) Explain(mode Mode, query string, opts ...ExplainOption) (string, error) {
	var cfg explainConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	var pt phaseTimes
	res, _, err := db.compile(mode, query, resolveOptions(cfg.qopts), &pt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s model=%s tier=%s", res.Mode.Name, res.Mode.Model.Name(), pt.tier)
	if pt.beam > 0 {
		fmt.Fprintf(&b, " beam=%d", pt.beam)
	}
	if pt.cacheHit {
		b.WriteString(" plan-cache=hit")
	}
	fmt.Fprintf(&b, " alternatives=%d kept=%d physicality=%.2f time=%s\n",
		res.Stats.Alternatives, res.Stats.Kept,
		res.Physicality(), res.Stats.Duration)
	b.WriteString(res.Best.Explain())
	if cfg.granules {
		b.WriteString(res.Best.GranuleTrees())
	}
	if cfg.unnesting {
		b.WriteString(unnestChains(res.Best))
	}
	if cfg.analyze {
		qres, err := db.run(context.Background(), mode, query, resolveOptions(cfg.qopts))
		if err != nil {
			return "", err
		}
		b.WriteString("\n")
		b.WriteString(analyzeReport(mode, qres))
	}
	return b.String(), nil
}

// unnestChains renders the unnesting steps of every join/group node.
func unnestChains(plan *core.Plan) string {
	var b strings.Builder
	var rec func(p *core.Plan)
	rec = func(p *core.Plan) {
		for _, c := range p.Children {
			rec(c)
		}
		var steps []*physio.Granule
		switch p.Op {
		case core.OpGroup:
			steps = physio.UnnestSteps(p.Group, p.GroupKey)
		case core.OpJoin:
			steps = physio.UnnestJoinSteps(p.Join, p.LeftKey, p.RightKey, p.Swapped)
		default:
			return
		}
		fmt.Fprintf(&b, "== unnesting %s ==\n", p.Label())
		for i, s := range steps {
			fmt.Fprintf(&b, "step %d (physicality %.2f):\n%s\n", i, s.Physicality(), s.Render())
		}
	}
	rec(plan)
	return b.String()
}

// applyAliases renames result columns according to SELECT ... AS aliases on
// plain columns (aggregate aliases are applied during planning). Clashing
// aliases are rejected at bind time, so a rename failure here is an
// internal inconsistency, not a silent fallback.
func applyAliases(rel *storage.Relation, stmt *sql.SelectStmt) (*storage.Relation, error) {
	renames := map[string]string{}
	for _, it := range stmt.Items {
		if it.Agg == nil && it.Alias != "" {
			// The bound plan uses qualified names; try both spellings.
			renames[it.Col] = it.Alias
		}
	}
	if len(renames) == 0 {
		return rel, nil
	}
	cols := make([]*storage.Column, 0, rel.NumCols())
	for _, c := range rel.Columns() {
		name := c.Name()
		if alias, ok := renames[name]; ok {
			cols = append(cols, c.Rename(alias))
			continue
		}
		// Bare reference in SELECT, qualified in the plan.
		matched := false
		for ref, alias := range renames {
			if suffixAfterDot(name) == ref {
				cols = append(cols, c.Rename(alias))
				matched = true
				break
			}
		}
		if !matched {
			cols = append(cols, c)
		}
	}
	out, err := storage.NewRelation(rel.Name(), cols...)
	if err != nil {
		return nil, fmt.Errorf("dqo: applying SELECT aliases: %w", err)
	}
	return out, nil
}

// aliasMap collects the alias -> base-table mapping of a statement, used to
// resolve Algorithmic Views against aliased, qualified plans.
func aliasMap(stmt *sql.SelectStmt) map[string]string {
	m := map[string]string{stmt.From.Name(): stmt.From.Table}
	for _, j := range stmt.Joins {
		m[j.Table.Name()] = j.Table.Table
	}
	return m
}

func suffixAfterDot(s string) string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return s[i+1:]
		}
	}
	return s
}

// MaterializeAV materialises an Algorithmic View of the given kind on
// table.column and registers it with the optimiser: AVSorted is a sorted
// projection (prepaid sort), AVHashIndex a prebuilt hash-join build side,
// AVSPH a static-perfect-hash directory over a dense key, and AVCracked an
// adaptive index that partitions itself along query bounds. The view is
// built outside the DB lock; adding it changes what statements should plan
// against, exactly like a Register: the catalog epoch moves on, so neither a
// cached plan nor one being planned meanwhile answers without the view.
func (db *DB) MaterializeAV(kind AVKind, table, column string) error {
	rel, ok := db.lookup(table)
	if !ok {
		return fmt.Errorf("dqo: unknown table %q", table)
	}
	var v *av.View
	var err error
	switch kind {
	case AVSorted:
		v, err = av.MaterializeSorted(table, rel, column)
	case AVHashIndex:
		v, err = av.MaterializeHashIndex(table, rel, column, hashtable.Murmur3Fin)
	case AVSPH:
		v, err = av.MaterializeSPH(table, rel, column)
	case AVCracked:
		v, err = av.MaterializeCracked(table, rel, column)
	default:
		return fmt.Errorf("dqo: unknown AV kind %d", uint8(kind))
	}
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.avs.Add(v)
	db.catalogChanged()
	return nil
}

// DescribeAVs renders the AV catalog: every view with its footprint, whether
// it is explicit (MaterializeAV, SelectAVs) or adopted from a join (see
// tableTaker), the keys it has been probed with and the builds it saved.
func (db *DB) DescribeAVs() string { return db.avs.String() }

// DropAVs removes every materialised AV, explicit and adopted.
func (db *DB) DropAVs() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.avs.Clear()
	db.catalogChanged()
}

// tableTaker is the DB as the exec.TableTaker of one join statement: how the
// engine materialises Algorithmic Views on its own. When an in-memory join
// builds its hash table (or SPH directory) over the unfiltered scan of a
// registered table of at least a morsel of rows, the second such build since
// the catalog last changed is not thrown away: the table is adopted as a
// hash-index (or SPH) view, cached plans and prepared statements re-plan once,
// and from then on the join only probes. Adopted views may hold
// av.DefaultBudget bytes in total; an offer that does not fit is declined and
// nothing is evicted to make room. Views named by MaterializeAV or SelectAVs
// are pinned and do not count. Re-registering a table drops its views, DropAVs
// all of them.
type tableTaker struct {
	db      *DB
	stmt    *sql.SelectStmt // resolves the plan's aliases, as overViews does
	adopted []string        // the views this execution's tables became; written under db.mu
}

// OfferTable adopts a join's table as a view when the catalog's policy says
// so. The plan names the scan by its alias; the view goes under the base
// table the statement gave that alias, which is where the statement's next
// plan will look for it. That the table indexes what is registered there is
// checked, not taken from the plan: the key column it was built over must be,
// in place, a plain column of that table now — which no filtered, decoded,
// re-ordered or replaced input is. An offer the catalog has no use for
// returns before the DB lock is asked for. An adoption changes what
// statements should plan against, exactly like a Register: the catalog epoch
// moves on.
func (t *tableTaker) OfferTable(o exec.TableOffer) bool {
	db := t.db
	table := o.Table
	if base, ok := aliasMap(t.stmt)[table]; ok {
		table = base
	}
	column := strings.TrimPrefix(o.Column, o.Table+".")
	if !db.avs.Wants(table, column, o) {
		return false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	rel, ok := db.tables[table]
	if !ok {
		return false
	}
	c, ok := rel.Column(column)
	if !ok || c.Encoding() != storage.EncNone || (c.Kind() != storage.KindUint32 && c.Kind() != storage.KindString) {
		return false
	}
	if data := c.Uint32s(); len(o.Keys) == 0 || len(data) != len(o.Keys) || &data[0] != &o.Keys[0] {
		return false
	}
	v := db.avs.Offer(table, column, o)
	if v == nil {
		return false
	}
	db.catalogChanged()
	t.adopted = append(t.adopted, v.Label())
	return true
}

// SelectAVs solves the Algorithmic View Selection Problem for a workload of
// (query, frequency) pairs under a byte budget, using submodular greedy
// selection, and installs the chosen views as MaterializeAV does. It returns
// a human-readable report.
func (db *DB) SelectAVs(mode Mode, workload map[string]float64, budgetBytes int64) (string, error) {
	cm, err := mode.coreMode()
	if err != nil {
		return "", err
	}
	var queries []av.WorkloadQuery
	for q, freq := range workload {
		stmt, err := sql.Parse(q)
		if err != nil {
			return "", fmt.Errorf("dqo: workload query %q: %w", q, err)
		}
		node, err := sql.Bind(stmt, catalogView{db})
		if err != nil {
			return "", fmt.Errorf("dqo: workload query %q: %w", q, err)
		}
		queries = append(queries, av.WorkloadQuery{Name: q, Plan: node, Freq: freq, Aliases: aliasMap(stmt)})
	}
	db.mu.RLock()
	tables := make(map[string]*storage.Relation, len(db.tables))
	for n, r := range db.tables {
		tables[n] = r
	}
	db.mu.RUnlock()

	cands, err := av.EnumerateCandidates(tables, queries)
	if err != nil {
		return "", err
	}
	sel, err := av.SelectGreedy(cands, queries, cm, budgetBytes)
	if err != nil {
		return "", err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, v := range sel.Views {
		db.avs.Add(v)
	}
	db.catalogChanged()
	return sel.String(), nil
}

func (db *DB) lookup(table string) (*storage.Relation, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rel, ok := db.tables[table]
	return rel, ok
}

// bindForTest exposes parse+bind for the root test suite and benchmarks.
func (db *DB) bind(query string) (logical.Node, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return sql.Bind(stmt, catalogView{db})
}
