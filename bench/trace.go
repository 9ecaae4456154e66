package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"dqo"
	"dqo/internal/av"
	"dqo/internal/core"
	"dqo/internal/exec"
	"dqo/internal/govern"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/serve"
	"dqo/internal/sql"
	"dqo/internal/storage"
)

// perLayer are the metrics of single layers, produced only by the traced run.
// exact marks the counts that repeat bit for bit at a fixed seed. Every one is
// measured on every workload: where a layer is not on a
// workload's path (README.md says which), the value comes from a probe that
// calls the layer with that workload's own statements and data.
var perLayer = []metricDef{
	{Name: "serve.overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.resp_bytes_per_op", Unit: "bytes", Better: "lower", exact: true},
	{Name: "serve.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.bind_us", Unit: "us", Better: "lower"},
	{Name: "sql.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "av.template_hit_rate", Unit: "ratio", Better: "higher", exact: true},
	{Name: "av.rebind_us", Unit: "us", Better: "lower"},
	{Name: "core.optimize_us.sqo", Unit: "us", Better: "lower"},
	{Name: "core.optimize_us.dqo", Unit: "us", Better: "lower"},
	{Name: "core.optimize_us.greedy", Unit: "us", Better: "lower"},
	{Name: "core.compile_us", Unit: "us", Better: "lower"},
	{Name: "core.alternatives_per_op", Unit: "count", Better: "lower", exact: true},
	{Name: "core.kept_per_op", Unit: "count", Better: "lower", exact: true},
	{Name: "core.plan_share", Unit: "ratio", Better: "lower"},
	{Name: "core.dqo_gain_x", Unit: "x", Better: "higher"},
	{Name: "core.est_gain_x", Unit: "x", Better: "higher", exact: true},
	{Name: "core.ns_per_cost_unit", Unit: "ns", Better: "lower"},
	{Name: "exec.run_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "exec.peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "physical.ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "storage.compress_ratio", Unit: "x", Better: "higher", exact: true},
	{Name: "storage.zone_skip_share", Unit: "ratio", Better: "higher", exact: true},
	{Name: "storage.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "spill.bytes_per_op", Unit: "bytes", Better: "lower", exact: true},
	{Name: "spill.op_share", Unit: "ratio", Better: "lower", exact: true},
	{Name: "govern.gate_enter_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
	{Name: "trace.layer_sum_gap", Unit: "ratio", Better: "lower"},
	{Name: "trace.design_violations", Unit: "count", Better: "lower"},
}

// probeOps is how many operations the serve probe pushes through a server,
// probeStmts how many statement shapes the plan probes sample, gainRuns how
// often each probed call is repeated.
const (
	probeOps   = 3
	probeStmts = 9
	gainRuns   = 5
)

// A span is one timed call into a layer. Spans of one operation share Op;
// probes carry Op -1. Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var layerGroups = []string{"serve", "sql", "av", "core", "govern", "exec", "other"}

// layerOf maps a span name ("sql.bind") to the layer group it counts for.
func layerOf(name string) string {
	prefix, _, _ := strings.Cut(name, ".")
	for _, g := range layerGroups {
		if g == prefix {
			return g
		}
	}
	return "other"
}

type relCatalog map[string]*storage.Relation

func (c relCatalog) Table(name string) (*storage.Relation, bool) {
	r, ok := c[name]
	return r, ok
}

// pipeline is the engine's query path (dqo.DB.run) taken apart: the same
// calls into each layer's exported functions, in the same order, with a span
// around each. It keeps its own catalog and template cache so that counts
// start from a cold, known state.
type pipeline struct {
	in    *instance
	cat   relCatalog
	avs   *av.Catalog
	cache *av.PlanCache
	tmpl  []*sql.SelectStmt // parsed prepared statements, by stmt id
	gate  *govern.Gate      // nil, like a DB without SetAdmission
}

func newPipeline(in *instance) (*pipeline, error) {
	p := &pipeline{in: in, cat: relCatalog{}, avs: av.NewCatalog(), cache: av.NewPlanCache(),
		tmpl: make([]*sql.SelectStmt, len(in.bp.stmts))}
	for _, t := range in.bp.tables {
		p.cat[t.name] = t.relation()
	}
	for _, name := range in.bp.compress {
		p.cat[name] = p.cat[name].Compress()
	}
	for _, st := range in.bp.stmts {
		if st.prepared {
			t, err := sql.Parse(st.q.sql(nil))
			if err != nil {
				return nil, err
			}
			p.tmpl[st.id] = t
		}
	}
	return p, nil
}

func coreMode(m dqo.Mode) core.Mode {
	switch m {
	case dqo.ModeSQO:
		return core.SQO()
	case dqo.ModeDQO:
		return core.DQO()
	case dqo.ModeDQOCalibrated:
		return core.DQOCalibrated()
	}
	return core.Greedy()
}

// mode assembles the core mode of a statement as dqo.DB.compile does.
func (p *pipeline) mode(st *stmt, parsed *sql.SelectStmt) core.Mode {
	cm := coreMode(st.mode)
	if st.workers > 0 {
		cm.DOP = st.workers
	}
	cm.MemBudget = st.memLimit
	cm.Spill = st.spill
	aliases := map[string]string{parsed.From.Name(): parsed.From.Table}
	for _, j := range parsed.Joins {
		aliases[j.Table.Name()] = j.Table.Table
	}
	prov := av.Qualified{Cat: p.avs, Aliases: aliases}
	return cm.WithAVs(prov, prov).WithCracked(prov)
}

// facts are what one traced call reports besides its spans.
type facts struct {
	rel     *storage.Relation
	profile exec.Profile
	cost    float64 // estimated cost of the executed plan
	run     time.Duration
	alloc   uint64
	peak    int64
	spill   int64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// call runs one statement through the decomposed path under parent.
func (p *pipeline) call(rec *recorder, op, parent int, c *call) (facts, error) {
	var f facts
	var parsed *sql.SelectStmt
	var err error
	if c.st.prepared {
		id := rec.begin("sql.bindargs", op, parent)
		parsed, err = sql.BindArgs(p.tmpl[c.st.id], anyArgs(c.args))
		rec.end(id)
	} else {
		id := rec.begin("sql.parse", op, parent)
		parsed, err = sql.Parse(c.text)
		rec.end(id)
	}
	if err != nil {
		return f, err
	}
	id := rec.begin("sql.bind", op, parent)
	node, err := sql.Bind(parsed, p.cat)
	rec.end(id)
	if err != nil {
		return f, err
	}
	cm := p.mode(c.st, parsed)

	var res *core.Result
	if c.st.prepared || p.in.bp.planCache {
		id = rec.begin("sql.fingerprint", op, parent)
		key := fmt.Sprintf("%s|dop=%d|mem=%d|beam=%d|spill=%t|%s", c.st.mode, cm.DOP, cm.MemBudget, cm.Beam, cm.Spill, sql.Fingerprint(parsed))
		rec.end(id)
		id = rec.begin("av.rebind", op, parent)
		var hit bool
		res, hit, err = p.cache.OptimizeTemplate(key, node, cm)
		rec.end(id)
		if !hit {
			rec.spans[id].Name = "core.optimize" // a miss enumerates
		}
	} else {
		id = rec.begin("core.optimize", op, parent)
		res, err = core.Optimize(node, cm)
		rec.end(id)
	}
	if err != nil {
		return f, err
	}
	f.cost = res.Best.Cost

	id = rec.begin("core.compile", op, parent)
	root, err := core.Compile(res.Best)
	if err == nil && parsed.Limit >= 0 {
		root = exec.NewLimit(root, parsed.Limit)
	}
	rec.end(id)
	if err != nil {
		return f, err
	}

	id = rec.begin("govern.gate", op, parent)
	release, err := p.gate.Enter(context.Background())
	rec.end(id)
	if err != nil {
		return f, err
	}
	defer release()

	var mem *govern.Budget
	if c.st.memLimit > 0 {
		mem = govern.NewBudget(c.st.memLimit)
	}
	before := heapAllocs()
	id = rec.begin("exec.run", op, parent)
	ec := exec.NewExecContextBudget(context.Background(), 0, c.st.workers, mem)
	if c.st.spill {
		ec.SetSpill(p.in.spill, 0)
	}
	f.rel, err = exec.Run(ec, root)
	f.run = rec.end(id)
	f.alloc = heapAllocs() - before
	if err != nil {
		return f, err
	}
	id = rec.begin("exec.profile", op, parent)
	f.profile = exec.CollectProfile(root)
	rec.end(id)
	f.peak = mem.Peak()
	for _, s := range f.profile {
		f.spill += s.SpillBytes
		if mem == nil {
			f.peak = max(f.peak, s.PeakBytes)
		}
	}
	if p.in.bp.front == overHTTP {
		id = rec.begin("serve.encode", op, parent)
		encodeRows(f.rel)
		rec.end(id)
	}
	return f, nil
}

// encodeRows writes a result the way serve.Server.writeResult does: one
// json.Marshal per row of boxed cells. It is the benchmark's copy, since the
// server's encoder is not exported.
func encodeRows(rel *storage.Relation) {
	var buf bytes.Buffer
	head, _ := json.Marshal(rel.ColumnNames())
	fmt.Fprintf(&buf, `{"columns":%s,"rows":[`, head)
	cells := make([]any, rel.NumCols())
	for i := 0; i < rel.NumRows(); i++ {
		for j, c := range rel.Columns() {
			v := c.ValueAt(i)
			if v.Kind == storage.KindUint32 {
				cells[j] = uint32(v.U)
			} else {
				cells[j] = int64(v.U)
			}
		}
		row, _ := json.Marshal(cells)
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(row)
	}
	fmt.Fprintf(&buf, `],"row_count":%d}`, rel.NumRows())
}

// relationAnswer is an executed relation in the checker's terms.
func relationAnswer(rel *storage.Relation) (answer, error) {
	a := answer{rows: rel.NumRows(), cols: make([]column, rel.NumCols())}
	for i, c := range rel.Columns() {
		switch c.Kind() {
		case storage.KindUint32:
			a.cols[i] = column{name: c.Name(), u32: c.Uint32s()}
		case storage.KindInt64:
			a.cols[i] = column{name: c.Name(), i64: c.Int64s()}
		default:
			return a, fmt.Errorf("result column %q has kind %s", c.Name(), c.Kind())
		}
	}
	return a, nil
}

// wireRequest builds the HTTP request a wire client would send for a call.
// With a client it goes through the client's session and prepared handles;
// without, as a literal one-shot under the statement's mode.
func wireRequest(base string, wc *wireClient, c *call) (*http.Request, error) {
	var path string
	var body any
	switch {
	case wc != nil && c.st.prepared:
		path, body = "/execute", serve.ExecuteRequest{Session: wc.c.Session(), Stmt: wc.handles[c.st.id], Args: anyArgs(c.args)}
	case wc != nil:
		path, body = "/query", serve.QueryRequest{SQL: c.text, Session: wc.c.Session()}
	default:
		mode := map[dqo.Mode]string{dqo.ModeSQO: "sqo", dqo.ModeDQO: "dqo", dqo.ModeDQOCalibrated: "cal", dqo.ModeGreedy: "greedy"}[c.st.mode]
		path, body = "/query", serve.QueryRequest{SQL: c.st.q.sql(c.args), Mode: mode}
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// bodyBytes is the response size without the digits of elapsed_ms, the one
// field whose length varies from run to run.
func bodyBytes(body []byte) int {
	const key = `"elapsed_ms":`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return len(body)
	}
	j := bytes.IndexByte(body[i:], '}')
	if j < 0 {
		return len(body)
	}
	return len(body) - (j - len(key))
}

// serveOp pushes one operation through a server three ways under parent, call
// by call: over the socket as a client sees it (serve.request), through the
// handler alone against an in-memory recorder (serve.handler), and in process
// through the public API (serve.inprocess). wc is the wire client whose session
// and handles the requests use, nil for literal one-shots. It books the
// operation's serving overhead and handler time, and the response size when
// counted is set, and returns the socket time.
func (t *tracer) serveOp(op, parent int, srv *server, hc *http.Client, wc *wireClient, o op, counted bool) (time.Duration, error) {
	var request, inproc, handler time.Duration
	for k := range o {
		c := &o[k]
		req, err := wireRequest(srv.base, wc, c)
		if err != nil {
			return 0, err
		}
		id := t.rec.begin("serve.request", op, parent)
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		var decoded serve.QueryResponse
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		derr := dec.Decode(&decoded)
		resp.Body.Close()
		request += t.rec.end(id)
		t.requests++
		if resp.StatusCode == http.StatusTooManyRequests {
			t.shed++
			continue
		}
		if resp.StatusCode != http.StatusOK || derr != nil {
			return 0, fmt.Errorf("%s: HTTP %d (%v)", req.URL.Path, resp.StatusCode, derr)
		}
		a := answer{rows: decoded.RowCount, wire: decoded.Rows}
		if err := verify(c, &a, op); err != nil {
			return 0, fmt.Errorf("over the wire: %s [args %v]: %w", c.st.q.sql(nil), c.args, err)
		}

		if req, err = wireRequest(srv.base, wc, c); err != nil {
			return 0, err
		}
		w := httptest.NewRecorder()
		id = t.rec.begin("serve.handler", op, parent)
		srv.srv.Handler().ServeHTTP(w, req)
		handler += t.rec.end(id)
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("%s against a recorder: HTTP %d", req.URL.Path, w.Code)
		}
		if counted {
			t.respBytes += bodyBytes(w.Body.Bytes())
		}

		id = t.rec.begin("serve.inprocess", op, parent)
		if c.st.prepared {
			_, err = t.in.stmts[c.st.id].Query(context.Background(), anyArgs(c.args)...)
		} else {
			_, err = t.in.db.Query(context.Background(), c.st.mode, c.st.q.sql(c.args))
		}
		inproc += t.rec.end(id)
		if err != nil {
			return 0, err
		}
	}
	t.overhead = append(t.overhead, float64(request-inproc))
	t.handler = append(t.handler, float64(handler))
	return request, nil
}

// tracer holds one traced run's state and tallies.
type tracer struct {
	w    *workload
	in   *instance
	pipe *pipeline
	rec  *recorder
	out  io.Writer

	dur      map[string][]float64 // span name -> durations in ns, on-path replay
	probe    map[string][]float64 // span name -> durations in ns, probes
	ops      []opRecord           // one per replayed operation, in order
	nsCost   []float64            // per call: exec.run ns / estimated cost
	operator map[string]float64   // operator label -> self ns
	overhead []float64            // per op: serve.request - serve.inprocess, ns
	handler  []float64            // per op: serve.handler ns
	requests int
	shed     int

	// Exact counts, over the first w.exact operations only.
	hits, miss  int
	respBytes   int
	spillBytes  int64
	spillCalls  int
	calls       int
	zoneSkipped int
	zoneTotal   int
}

// opRecord is the accounting of one replayed operation.
type opRecord struct {
	class  string             // the statements it ran: operations of one class do the same work
	total  float64            // client-observed ns
	steps  float64            // sum of the pipeline step spans, ns
	layers map[string]float64 // layer group -> ns
	run    float64            // exec.run ns
	alloc  float64
	peak   float64
}

// figure extracts one value of every record.
func figure(ops []opRecord, get func(*opRecord) float64) []float64 {
	out := make([]float64, len(ops))
	for i := range ops {
		out[i] = get(&ops[i])
	}
	return out
}

func (t *tracer) add(m map[string][]float64, name string, d time.Duration) {
	m[name] = append(m[name], float64(d))
}

// replayOp runs operation i decomposed and books its spans.
func (t *tracer) replayOp(i int) error {
	o := t.in.bp.ops[i%len(t.in.bp.ops)]
	exact := i < t.w.exact
	first := len(t.rec.spans)
	root := t.rec.begin("op", i, -1)
	var request time.Duration
	if t.in.bp.front == overHTTP {
		wc := t.in.clients[0]
		var err error
		if request, err = t.serveOp(i, root, t.in.srv, wc.hc, wc, o, exact); err != nil {
			return err
		}
	}
	replay := t.rec.begin("replay", i, root)
	var run time.Duration
	var alloc uint64
	var peak int64
	for k := range o {
		f, err := t.pipe.call(t.rec, i, replay, &o[k])
		if err != nil {
			return fmt.Errorf("%s [args %v]: %w", o[k].st.q.sql(nil), o[k].args, err)
		}
		a, err := relationAnswer(f.rel)
		if err == nil {
			err = verify(&o[k], &a, i)
		}
		if err != nil {
			return fmt.Errorf("wrong answer from the decomposed path: %s [args %v]: %w", o[k].st.q.sql(nil), o[k].args, err)
		}
		run, alloc, peak = run+f.run, alloc+f.alloc, max(peak, f.peak)
		if f.cost > 0 {
			t.nsCost = append(t.nsCost, float64(f.run)/f.cost)
		}
		for _, s := range f.profile {
			t.operator[literals.ReplaceAllString(s.Label, "?")] += float64(s.Self)
		}
		if exact {
			t.calls++
			t.spillBytes += f.spill
			if f.spill > 0 {
				t.spillCalls++
			}
			skipped, total := t.zoneSkip(&o[k])
			t.zoneSkipped, t.zoneTotal = t.zoneSkipped+skipped, t.zoneTotal+total
		}
	}
	replayDur := t.rec.end(replay)
	t.rec.end(root)
	if exact {
		t.hits, t.miss = t.pipe.cache.Stats()
	}

	total := replayDur
	if t.in.bp.front == overHTTP {
		total = request
	}
	layers := map[string]float64{}
	var steps, encode float64
	for _, s := range t.rec.spans[first:] {
		if s.Parent != replay {
			continue
		}
		d := time.Duration(s.End - s.Start)
		t.add(t.dur, s.Name, d)
		layers[layerOf(s.Name)] += float64(d)
		steps += float64(d)
		if s.Name == "serve.encode" {
			encode += float64(d)
		}
	}
	if t.in.bp.front == overHTTP {
		// Whatever the socket round trip took beyond the engine's own steps
		// is the serving layer: wire decode, session, admission, write, read.
		layers["serve"] += float64(total) - (steps - encode)
	} else {
		layers["other"] += float64(replayDur) - steps
	}
	var class strings.Builder
	for k := range o {
		fmt.Fprintf(&class, "%d,", o[k].st.id)
	}
	t.ops = append(t.ops, opRecord{class: class.String(), total: float64(total), steps: steps, layers: layers,
		run: float64(run), alloc: float64(alloc), peak: float64(peak)})
	return nil
}

// shares splits the traced time between the layer groups. It is a
// steady-state figure: the fixed prefix, which starts from a cold template
// cache and uncomputed statistics, is left out. Within each class of
// operation the median operation stands for the class, so that a collection
// pause landing in one span does not move a share; classes weigh in by how
// often they occur.
func (t *tracer) shares() map[string]float64 {
	steady := t.ops[min(t.w.exact, len(t.ops)/2):]
	byClass := map[string][]opRecord{}
	for _, r := range steady {
		byClass[r.class] = append(byClass[r.class], r)
	}
	out := map[string]float64{}
	var total float64
	for _, recs := range byClass {
		n := float64(len(recs))
		total += n * median(figure(recs, func(r *opRecord) float64 { return r.total }))
		for _, g := range layerGroups {
			out[g] += n * median(figure(recs, func(r *opRecord) float64 { return r.layers[g] }))
		}
	}
	for g := range out {
		out[g] /= total
	}
	return out
}

// literals matches the numbers in an operator label, so that executions of
// one statement with different arguments add up under one label.
var literals = regexp.MustCompile(`\b[0-9]+\b`)

// zoneSkip asks the zone maps of a compressed table how many segments a
// call's range filter skips, as the optimiser's census does.
func (t *tracer) zoneSkip(c *call) (skipped, total int) {
	rel := t.pipe.cat[c.st.q.from]
	lo, hi := int64(0), int64(math.MaxUint32)
	var colName string
	for _, p := range c.st.q.where {
		lit := p.lit
		if p.arg >= 0 {
			lit = c.args[p.arg]
		}
		colName = p.col
		switch p.op {
		case "=":
			lo, hi = lit, lit
		case ">=":
			lo = max(lo, lit)
		case ">":
			lo = max(lo, lit+1)
		case "<":
			hi = min(hi, lit-1)
		case "<=":
			hi = min(hi, lit)
		}
	}
	if colName == "" {
		return 0, 0
	}
	col, ok := rel.Column(colName)
	if !ok {
		return 0, 0
	}
	enc, _, _, ok := col.EncodedView()
	if !ok {
		return 0, 0
	}
	s, f, p, _ := enc.PredStats(uint32(lo), uint32(hi))
	return s, s + f + p
}

// probed is what the probes report besides their spans.
type probed struct {
	gain, estGain      float64 // geometric means over the sampled statements
	alternatives, kept float64 // per operation of the fixed prefix
	nsPerRow, decodeNS float64
}

// bindText parses and binds a call's statement with its arguments written in.
func (t *tracer) bindText(c *call) (*sql.SelectStmt, logical.Node, error) {
	parsed, err := sql.Parse(c.st.q.sql(c.args))
	if err != nil {
		return nil, nil, err
	}
	node, err := sql.Bind(parsed, t.pipe.cat)
	return parsed, node, err
}

// timed records a probe span around fn and files its duration under name.
func (t *tracer) timed(name string, parent int, fn func() error) error {
	id := t.rec.begin(name, -1, parent)
	err := fn()
	t.add(t.probe, name, t.rec.end(id))
	return err
}

// probes measures every layer off the replayed path, with this workload's own
// statements and data.
func (t *tracer) probes() (probed, error) {
	root := t.rec.begin("probe", -1, -1)
	defer t.rec.end(root)
	var pr probed
	if err := t.planProbes(root, &pr); err != nil {
		return pr, err
	}
	if err := t.kernelProbes(root, &pr); err != nil {
		return pr, err
	}
	if t.in.bp.front == embedded {
		// serve: the first operations of the stream pushed through an
		// in-process server over the same DB.
		srv, err := startServer(t.in.db)
		if err != nil {
			return pr, err
		}
		defer srv.stop()
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		defer hc.CloseIdleConnections()
		for i := 0; i < probeOps; i++ {
			if _, err := t.serveOp(-1, root, srv, hc, nil, t.in.bp.ops[i%len(t.in.bp.ops)], true); err != nil {
				return pr, err
			}
		}
	}
	return pr, nil
}

// planProbes makes every planning call for a sample of the workload's
// statements, whether or not the workload's path makes it: parse,
// fingerprint, a template hit, enumeration under each of the three tiers, and
// the SQO-chosen against the DQO-chosen plan, estimated and executed. It also
// counts the alternatives the workload's own mode costs over the fixed prefix.
func (t *tracer) planProbes(root int, pr *probed) error {
	// One call per statement shape, evenly spread over the workload's shapes.
	var sample []*call
	seen := map[int]bool{}
	stride := max(len(t.in.bp.stmts)/probeStmts, 1)
	for _, o := range t.in.bp.ops {
		for k := range o {
			if id := o[k].st.id; !seen[id] && id%stride == 0 && len(sample) < probeStmts {
				seen[id] = true
				sample = append(sample, &o[k])
			}
		}
	}
	tiers := []struct {
		name string
		mode core.Mode
	}{{"sqo", core.SQO()}, {"dqo", core.DQO()}, {"greedy", core.Greedy()}}

	private := av.NewPlanCache()
	var logGain, logEst float64
	fmt.Fprintf(t.out, "  plan probes (SQO-chosen against DQO-chosen plan, each executed %d times):\n", gainRuns)
	for n, c := range sample {
		text := c.st.q.sql(c.args)
		var parsed *sql.SelectStmt
		var node logical.Node
		for rep := 0; rep < gainRuns; rep++ {
			err := t.timed("sql.parse", root, func() (err error) { parsed, err = sql.Parse(text); return })
			if err != nil {
				return err
			}
			var key string
			t.timed("sql.fingerprint", root, func() error {
				key = fmt.Sprintf("%s|%s", c.st.mode, sql.Fingerprint(parsed))
				return nil
			})
			if node, err = sql.Bind(parsed, t.pipe.cat); err != nil {
				return err
			}
			// The first repeat misses and fills the template; only hits count.
			id := t.rec.begin("av.rebind", -1, root)
			_, hit, err := private.OptimizeTemplate(key, node, t.pipe.mode(c.st, parsed))
			if d := t.rec.end(id); hit {
				t.add(t.probe, "av.rebind", d)
			}
			if err != nil {
				return err
			}
			for _, tier := range tiers {
				tm := tier.mode
				if c.st.workers > 0 {
					tm.DOP = c.st.workers
				}
				err := t.timed("core.optimize."+tier.name, root, func() error { _, err := core.Optimize(node, tm); return err })
				if err != nil {
					return err
				}
			}
		}
		sqo, dqoRes, est, err := core.CompareModes(node, core.SQO(), core.DQO())
		if err != nil {
			return err
		}
		var ms [2][]float64
		for rep := 0; rep < gainRuns; rep++ {
			for side, plan := range []*core.Plan{sqo.Best, dqoRes.Best} {
				opRoot, err := core.Compile(plan)
				if err != nil {
					return err
				}
				id := t.rec.begin([]string{"exec.run.sqo_plan", "exec.run.dqo_plan"}[side], -1, root)
				_, err = exec.Run(exec.NewExecContext(context.Background(), 0, c.st.workers), opRoot)
				ms[side] = append(ms[side], float64(t.rec.end(id)))
				if err != nil {
					return err
				}
			}
		}
		gain := median(ms[0]) / median(ms[1])
		logGain += math.Log(gain)
		logEst += math.Log(est)
		fmt.Fprintf(t.out, "    cell %d: est_gain %.3fx measured_gain %.3fx (sqo %.3f ms, dqo %.3f ms)  %s\n",
			n, est, gain, median(ms[0])/1e6, median(ms[1])/1e6, c.st.q.sql(nil))
	}
	pr.gain = math.Exp(logGain / float64(len(sample)))
	pr.estGain = math.Exp(logEst / float64(len(sample)))

	memo := map[int]core.Stats{}
	for i := 0; i < t.w.exact; i++ {
		o := t.in.bp.ops[i%len(t.in.bp.ops)]
		for k := range o {
			c := &o[k]
			st, ok := memo[c.st.id]
			if !ok {
				parsed, node, err := t.bindText(c)
				if err != nil {
					return err
				}
				res, err := core.Optimize(node, t.pipe.mode(c.st, parsed))
				if err != nil {
					return err
				}
				st = res.Stats
				memo[c.st.id] = st
			}
			pr.alternatives += float64(st.Alternatives)
			pr.kept += float64(st.Kept)
		}
	}
	pr.alternatives /= float64(t.w.exact)
	pr.kept /= float64(t.w.exact)
	return nil
}

// kernelProbes calls the hash-grouping kernel and the segment decoder directly
// on the workload's key column, as benchkit.RunFigure4 calls the kernels.
func (t *tracer) kernelProbes(root int, pr *probed) error {
	kt := t.in.bp.table(t.in.bp.kernel[0])
	keys := kt.col(t.in.bp.kernel[1]).u32
	vals := make([]int64, len(keys))
	for _, c := range kt.cols {
		if c.i64 != nil {
			vals = c.i64
		}
	}
	st := t.pipe.cat[kt.name].MustColumn(t.in.bp.kernel[1]).Stats()
	dom := props.Domain{Known: true, Dense: st.Dense, Lo: st.Min, Hi: st.Max, Distinct: int64(st.Distinct)}
	enc, err := storage.EncodeUint32(keys, storage.EncFoR, storage.DefaultSegmentRows)
	if err != nil {
		return err
	}
	dst := make([]uint32, len(keys))
	for rep := 0; rep < gainRuns; rep++ {
		err := t.timed("physical.group_hg", root, func() error {
			_, err := physical.Group(physical.HG, keys, vals, dom, physical.GroupOptions{})
			return err
		})
		if err != nil {
			return err
		}
		t.timed("storage.decode", root, func() error { enc.DecodeRange(0, len(keys), dst); return nil })
	}
	pr.nsPerRow = median(t.probe["physical.group_hg"]) / float64(len(keys))
	pr.decodeNS = median(t.probe["storage.decode"]) / float64(len(keys))
	return nil
}

// pick returns the median duration of a span name in microseconds: from the
// replay where the step is on the workload's path, else from the probes.
func (t *tracer) pick(name string) float64 {
	if v := t.dur[name]; len(v) > 0 {
		return median(v) / 1e3
	}
	if v := t.probe[name]; len(v) > 0 {
		return median(v) / 1e3
	}
	return 0
}

// runTraced is the per-layer run: a short untraced window for reference, the
// stream replayed decomposed with a span around every layer call, then the
// off-path probes.
func runTraced(ctx context.Context, w *workload, cfg config, out io.Writer) (outcome, error) {
	in, _, err := setUp(ctx, w, cfg)
	if err != nil {
		return outcome{}, err
	}
	defer in.close()
	untraced := in.measure(ctx, cfg.window/2, cfg.seed)
	if !untraced.Correct {
		printEndToEnd(out, w, untraced)
		return untraced, nil
	}
	untracedP50 := untraced.medianMS * 1e6 // ns; the plain median, as for the replay

	pipe, err := newPipeline(in)
	if err != nil {
		return outcome{}, err
	}
	t := &tracer{w: w, in: in, pipe: pipe, rec: &recorder{t0: time.Now()}, out: out,
		dur: map[string][]float64{}, probe: map[string][]float64{}, operator: map[string]float64{}}
	begin := time.Now()
	ops := 0
	for ; ops < 2*w.exact || time.Since(begin) < cfg.window/2; ops++ {
		if err := t.replayOp(ops); err != nil {
			return outcome{}, fmt.Errorf("traced operation %d (seed %d): %w", ops, cfg.seed, err)
		}
	}
	fmt.Fprintf(out, "%-13s traced: %d operations replayed, %d spans; untraced reference p50 %.4f ms over %d samples\n",
		w.name, ops, len(t.rec.spans), untracedP50/1e6, untraced.samples)
	pr, err := t.probes()
	if err != nil {
		return outcome{}, fmt.Errorf("probe (seed %d): %w", cfg.seed, err)
	}

	var plain, stored int64
	for _, rel := range pipe.cat {
		for _, cs := range rel.StorageInfo() {
			plain, stored = plain+cs.PlainBytes, stored+cs.StoredBytes
		}
	}
	shares := t.shares()
	share := func(groups ...string) float64 {
		var s float64
		for _, g := range groups {
			s += shares[g]
		}
		return s
	}
	// Planning is everything before admission: sql, the template cache, core.
	planShare := share("sql", "av", "core")
	tracedP50 := median(figure(t.ops, func(r *opRecord) float64 { return r.total }))
	// What the trace accounts for: the pipeline steps, plus over HTTP the
	// serving remainder, which together are the request.
	stepsP50 := median(figure(t.ops, func(r *opRecord) float64 { return r.steps }))
	if in.bp.front == overHTTP {
		stepsP50 = tracedP50
	}
	gap := math.Abs(untracedP50-stepsP50) / untracedP50

	violations := 0
	fmt.Fprintf(out, "  layer shares of traced time (client-observed %.4f ms per op at the median):\n", tracedP50/1e6)
	for _, g := range layerGroups {
		fmt.Fprintf(out, "    %-7s %6.2f%%\n", g, 100*share(g))
	}
	if s := share(w.major...); s < 0.5 {
		violations++
		fmt.Fprintf(out, "  DESIGN CHECK FAILED: %s hold %.1f%% of traced time, want >= 50%%: resize the data\n", strings.Join(w.major, "+"), 100*s)
	} else {
		fmt.Fprintf(out, "  design check ok: %s hold %.1f%% of traced time (>= 50%%)\n", strings.Join(w.major, "+"), 100*s)
	}
	for g, limit := range w.capped {
		s := share(g)
		if g == "plan" {
			s = planShare
		}
		if s > limit {
			violations++
			fmt.Fprintf(out, "  DESIGN CHECK FAILED: %s holds %.2f%% of traced time, want <= %.0f%%: resize the data\n", g, 100*s, 100*limit)
		} else {
			fmt.Fprintf(out, "  design check ok: %s holds %.2f%% of traced time (<= %.0f%%)\n", g, 100*s, 100*limit)
		}
	}
	if in.bp.front == embedded && gap > 0.10 {
		fmt.Fprintf(out, "  NOTE: sum of layers (%.4f ms) is %.1f%% away from the untraced p50 (%.4f ms)\n", stepsP50/1e6, 100*gap, untracedP50/1e6)
	}

	exactOps := float64(w.exact)
	respOps := exactOps
	if in.bp.front == embedded {
		respOps = probeOps
	}
	values := map[string]float64{
		"serve.overhead_us":         median(t.overhead) / 1e3,
		"serve.handler_us":          median(t.handler) / 1e3,
		"serve.resp_bytes_per_op":   float64(t.respBytes) / respOps,
		"serve.shed_share":          float64(t.shed+untraced.shed) / float64(t.requests+untraced.Attempted),
		"sql.parse_us":              t.pick("sql.parse"),
		"sql.bind_us":               t.pick("sql.bind"),
		"sql.fingerprint_us":        t.pick("sql.fingerprint"),
		"av.template_hit_rate":      float64(t.hits) / float64(max(t.hits+t.miss, 1)),
		"av.rebind_us":              t.pick("av.rebind"),
		"core.optimize_us.sqo":      t.pick("core.optimize.sqo"),
		"core.optimize_us.dqo":      t.pick("core.optimize.dqo"),
		"core.optimize_us.greedy":   t.pick("core.optimize.greedy"),
		"core.compile_us":           t.pick("core.compile"),
		"core.alternatives_per_op":  pr.alternatives,
		"core.kept_per_op":          pr.kept,
		"core.plan_share":           planShare,
		"core.dqo_gain_x":           pr.gain,
		"core.est_gain_x":           pr.estGain,
		"core.ns_per_cost_unit":     median(t.nsCost),
		"exec.run_ms":               median(figure(t.ops, func(r *opRecord) float64 { return r.run })) / 1e6,
		"exec.alloc_bytes_per_op":   median(figure(t.ops, func(r *opRecord) float64 { return r.alloc })),
		"exec.peak_bytes":           median(figure(t.ops, func(r *opRecord) float64 { return r.peak })),
		"physical.ns_per_row":       pr.nsPerRow,
		"storage.compress_ratio":    float64(plain) / float64(stored),
		"storage.zone_skip_share":   float64(t.zoneSkipped) / float64(max(t.zoneTotal, 1)),
		"storage.decode_ns_per_row": pr.decodeNS,
		"spill.bytes_per_op":        float64(t.spillBytes) / exactOps,
		"spill.op_share":            float64(t.spillCalls) / float64(max(t.calls, 1)),
		"govern.gate_enter_us":      t.pick("govern.gate"),
		"trace.overhead":            tracedP50/untracedP50 - 1,
		"trace.layer_sum_gap":       gap,
		"trace.design_violations":   float64(violations),
	}
	res := outcome{Correct: true, Attempted: ops, Metrics: map[string]metric{}, samples: ops}
	fmt.Fprintf(out, "  per-layer metrics (exact counts over the first %d operations):\n", w.exact)
	for _, m := range perLayer {
		res.Metrics[m.Name] = metric{values[m.Name], m.Unit}
		fmt.Fprintf(out, "    %-26s %16.6f %s\n", m.Name, values[m.Name], m.Unit)
	}
	type opSelf struct {
		label string
		ns    float64
	}
	var selfs []opSelf
	for l, ns := range t.operator {
		selfs = append(selfs, opSelf{l, ns})
	}
	sort.Slice(selfs, func(i, j int) bool { return selfs[i].ns > selfs[j].ns })
	fmt.Fprintf(out, "  operator self time per op (exec.CollectProfile), largest first:\n")
	for _, s := range selfs[:min(len(selfs), 10)] {
		fmt.Fprintf(out, "    %10.4f ms  %s\n", s.ns/float64(ops)/1e6, s.label)
	}

	path := cfg.traceOut
	if path == "" {
		path = filepath.Join(buildDir, "trace-"+w.name+".jsonl")
	}
	if err := t.rec.write(path); err != nil {
		return outcome{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "  %d spans written to %s\n", len(t.rec.spans), path)
	return res, nil
}
