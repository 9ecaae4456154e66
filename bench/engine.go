package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dqo"
	"dqo/internal/serve"
)

// buildDir is the only place the benchmark writes: spill runs and the trace.
const buildDir = ".bench_build"

// An instance is a blueprint brought up: tables registered, statements
// prepared, and for overHTTP a server listening with one session per client.
type instance struct {
	w      *workload
	bp     *blueprint
	db     *dqo.DB
	spill  string
	settle time.Duration // how long the loop runs before the window opens
	stmts  []*dqo.Stmt   // embedded prepared handles, by stmt id

	srv     *server
	clients []*wireClient
}

type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when Serve has returned
}

type wireClient struct {
	c       *serve.Client
	hc      *http.Client
	handles []string // prepared statement handle by stmt id
}

// startServer serves db on a loopback listener until stop is called.
func startServer(db *dqo.DB) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: serve.New(serve.Config{DB: db}), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.base = "http://" + ln.Addr().String()
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

func (s *server) stop() {
	_ = s.hs.Close() // no request is in flight when the benchmark stops
	<-s.done
}

// newWireClient opens one connection's worth of client: its own transport
// (one kept-alive connection), one session, the workload's prepared statements.
func newWireClient(ctx context.Context, base string, stmts []*stmt) (*wireClient, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	wc := &wireClient{c: serve.NewClient(base, hc), hc: hc, handles: make([]string, len(stmts))}
	if err := wc.c.NewSession(ctx, "bench"); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	for _, st := range stmts {
		if !st.prepared {
			continue
		}
		resp, err := wc.c.Prepare(ctx, "", st.q.sql(nil))
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", st.q.sql(nil), err)
		}
		wc.handles[st.id] = resp.Stmt
	}
	return wc, nil
}

// bringUp builds the engine side of a blueprint.
func bringUp(ctx context.Context, w *workload, bp *blueprint) (*instance, error) {
	in := &instance{w: w, bp: bp, db: dqo.Open()}
	for _, t := range bp.tables {
		if err := in.db.Register(t.engineTable()); err != nil {
			return nil, err
		}
	}
	for _, name := range bp.compress {
		if err := in.db.CompressTable(name); err != nil {
			return nil, err
		}
	}
	in.db.EnablePlanCache(bp.planCache)
	in.spill = filepath.Join(buildDir, "spill")
	if err := os.MkdirAll(in.spill, 0o755); err != nil {
		return nil, err
	}
	// Prepared statements also get an in-process handle when the workload
	// runs over HTTP: the traced run compares the two paths.
	in.stmts = make([]*dqo.Stmt, len(bp.stmts))
	for _, st := range bp.stmts {
		if !st.prepared {
			continue
		}
		h, err := in.db.Prepare(st.mode, st.q.sql(nil))
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", st.q.sql(nil), err)
		}
		in.stmts[st.id] = h
	}
	if bp.front == overHTTP {
		var err error
		if in.srv, err = startServer(in.db); err != nil {
			return nil, err
		}
		for c := 0; c < w.clients; c++ {
			wc, err := newWireClient(ctx, in.srv.base, bp.stmts)
			if err != nil {
				in.close()
				return nil, err
			}
			in.clients = append(in.clients, wc)
		}
	}
	return in, nil
}

func (in *instance) close() {
	for _, wc := range in.clients {
		_ = wc.c.CloseSession(context.Background())
		wc.hc.CloseIdleConnections()
	}
	if in.srv != nil {
		in.srv.stop()
	}
}

// options are the per-execution settings of an embedded statement.
func (in *instance) options(st *stmt) []dqo.QueryOption {
	var opts []dqo.QueryOption
	if st.workers > 0 {
		opts = append(opts, dqo.WithWorkers(st.workers))
	}
	if st.memLimit > 0 {
		opts = append(opts, dqo.WithMemoryLimit(st.memLimit))
	}
	if st.spill {
		opts = append(opts, dqo.WithSpillDir(in.spill))
	}
	return opts
}

// An answer is what the caller holds once the last row is consumed.
type answer struct {
	rows  int
	cols  []column // embedded: the result's typed column slices
	wire  [][]any  // overHTTP: decoded JSON rows
	spill int64
}

func anyArgs(args []int64) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a
	}
	return out
}

// errShed marks a request the server refused under load.
var errShed = errors.New("shed")

// execute runs one call through the workload's front end and consumes the
// result the way that caller would: an embedding application takes each typed
// column slice, a wire client decodes the JSON body.
func (in *instance) execute(ctx context.Context, client int, c *call) (answer, error) {
	if in.bp.front == overHTTP {
		wc := in.clients[client]
		var resp *serve.QueryResponse
		var err error
		if c.st.prepared {
			resp, err = wc.c.Execute(ctx, wc.handles[c.st.id], anyArgs(c.args)...)
		} else {
			resp, err = wc.c.Query(ctx, "", c.text)
		}
		if err != nil {
			var re *serve.RemoteError
			if errors.As(err, &re) && re.Kind == serve.KindQueueFull {
				return answer{}, errShed
			}
			return answer{}, err
		}
		return answer{rows: resp.RowCount, wire: resp.Rows}, nil
	}
	var res *dqo.Result
	var err error
	if c.st.prepared {
		res, err = in.stmts[c.st.id].QueryWith(ctx, anyArgs(c.args), in.options(c.st)...)
	} else {
		res, err = in.db.Query(ctx, c.st.mode, c.text, in.options(c.st)...)
	}
	if err != nil {
		return answer{}, err
	}
	cols, err := resultColumns(res)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: res.NumRows(), cols: cols, spill: res.SpilledBytes()}, nil
}

// resultColumns takes every column of a result as its typed slice.
func resultColumns(res *dqo.Result) ([]column, error) {
	names := res.Columns()
	cols := make([]column, len(names))
	for i, name := range names {
		if u, err := res.Uint32Column(name); err == nil {
			cols[i] = column{name: name, u32: u}
		} else if v, err := res.Int64Column(name); err == nil {
			cols[i] = column{name: name, i64: v}
		} else {
			return nil, fmt.Errorf("result column %q is neither uint32 nor int64", name)
		}
	}
	return cols, nil
}

// columns returns the answer column-major, converting wire rows on demand.
func (a *answer) columns() ([]column, error) {
	if a.wire == nil {
		return a.cols, nil
	}
	if len(a.wire) == 0 {
		return nil, nil
	}
	cols := make([]column, len(a.wire[0]))
	for j := range cols {
		cols[j].i64 = make([]int64, len(a.wire))
	}
	for i, row := range a.wire {
		for j, cell := range row {
			num, ok := cell.(json.Number)
			if !ok {
				return nil, fmt.Errorf("row %d column %d: %T is not a number", i, j, cell)
			}
			v, err := num.Int64()
			if err != nil {
				return nil, fmt.Errorf("row %d column %d: %w", i, j, err)
			}
			cols[j].i64[i] = v
		}
	}
	return cols, nil
}

// verify checks one answer: the row count always, the checksum and ordering
// on the pair's first occurrence and on every 64th operation.
func verify(c *call, a *answer, opIndex int) error {
	full := opIndex%64 == 0 || !c.want.seen.Swap(true)
	if !full {
		return c.want.check(resultSet{rows: a.rows}, false)
	}
	cols, err := a.columns()
	if err != nil {
		return err
	}
	return c.want.check(resultSet{rows: a.rows, cols: cols}, true)
}

// runOp executes operation i of the stream for one client and returns the
// caller-observed latency: request issue to last row consumed. Verification
// runs after the clock stops.
func (in *instance) runOp(ctx context.Context, client, i int) (time.Duration, error) {
	o := in.bp.ops[i%len(in.bp.ops)]
	answers := make([]answer, len(o))
	t0 := time.Now()
	for k := range o {
		a, err := in.execute(ctx, client, &o[k])
		if err != nil {
			return time.Since(t0), fmt.Errorf("%s [args %v]: %w", o[k].st.q.sql(nil), o[k].args, err)
		}
		answers[k] = a
	}
	lat := time.Since(t0)
	for k := range o {
		if err := verify(&o[k], &answers[k], i); err != nil {
			return lat, fmt.Errorf("wrong answer: %s [args %v]: %w", o[k].st.q.sql(nil), o[k].args, err)
		}
	}
	return lat, nil
}
