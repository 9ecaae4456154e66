package serve

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"dqo"
	"dqo/internal/govern"
	"dqo/internal/obs"
)

// Config shapes a Server. The zero value of every field selects a sensible
// default; only DB is required.
type Config struct {
	DB *dqo.DB

	// DefaultMode optimises queries whose request omits a mode
	// (default ModeDQOCalibrated — the engine's best tier).
	DefaultMode dqo.Mode
	// ModeSet marks DefaultMode as explicitly chosen, so ModeSQO (the zero
	// Mode) can be configured.
	ModeSet bool

	// MaxActive bounds concurrently executing queries (0 = GOMAXPROCS);
	// MaxQueue bounds how many more wait for a slot (0 = 4x MaxActive,
	// negative = no queue at all). Beyond both, requests shed immediately
	// with HTTP 429 — the serving layer degrades by queueing first and
	// shedding second, never by accepting unbounded work.
	MaxActive int
	MaxQueue  int

	// TenantActive/TenantQueue shape the per-tenant gates layered inside
	// the global one (0 = no per-tenant gating). A tenant saturating its
	// own slots queues and sheds without starving other tenants.
	TenantActive int
	TenantQueue  int

	// SessionTTL expires idle sessions (default 5m); MaxSessions bounds the
	// session table (default 1024); MaxStmts bounds prepared statements per
	// session (default 64).
	SessionTTL  time.Duration
	MaxSessions int
	MaxStmts    int

	// MemPerQuery caps each query's working memory in bytes (0 = unlimited),
	// applied as WithMemoryLimit on every execution.
	MemPerQuery int64

	// DefaultTimeout bounds requests that set no timeout_ms (default 30s);
	// MaxTimeout clamps requested timeouts (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxRows truncates the encoded result after this many rows (0 =
	// unlimited). The query still runs to completion; only the response body
	// is bounded.
	MaxRows int
}

func (c Config) withDefaults() Config {
	if !c.ModeSet {
		c.DefaultMode = dqo.ModeDQOCalibrated
	}
	if c.MaxActive <= 0 {
		c.MaxActive = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 4 * c.MaxActive
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxStmts <= 0 {
		c.MaxStmts = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// Server is the HTTP serving layer over one DB. Create with New, mount via
// Handler, and call Drain before shutting the listener down so /healthz
// flips to 503 while in-flight queries finish.
type Server struct {
	cfg      Config
	db       *dqo.DB
	gate     *govern.Gate
	tenants  *govern.TenantGates
	sessions *sessionTable
	metrics  *obs.HTTPCollector
	mux      *http.ServeMux
	draining atomic.Bool
}

// New builds a Server over cfg.DB. It panics on a nil DB — a server without
// an engine is a programming error, not a runtime condition.
func New(cfg Config) *Server {
	if cfg.DB == nil {
		panic("serve: Config.DB is nil")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		db:       cfg.DB,
		gate:     govern.NewGate(cfg.MaxActive, cfg.MaxQueue),
		tenants:  govern.NewTenantGates(cfg.TenantActive, cfg.TenantQueue),
		sessions: newSessionTable(cfg.SessionTTL, cfg.MaxSessions, cfg.MaxStmts),
		metrics:  obs.NewHTTPCollector(),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /query", s.instrument("/query", s.handleQuery))
	s.mux.HandleFunc("POST /session", s.instrument("/session", s.handleSessionCreate))
	s.mux.HandleFunc("DELETE /session/{id}", s.instrument("/session", s.handleSessionDelete))
	s.mux.HandleFunc("POST /prepare", s.instrument("/prepare", s.handlePrepare))
	s.mux.HandleFunc("POST /execute", s.instrument("/execute", s.handleExecute))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	return s
}

// Handler returns the server's route table, ready to mount on an
// http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain flips the server into shutdown mode: /healthz reports 503 so load
// balancers stop routing here, new queries are refused with KindDraining,
// and requests already executing run to completion (the caller then uses
// http.Server.Shutdown to wait for them).
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusWriter captures the final status code for the request metric.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the per-endpoint request metric.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.metrics.RecordRequest(endpoint, sw.status, time.Since(start))
		if s.draining.Load() && sw.status < 300 {
			s.metrics.RecordDrained()
		}
	}
}

// jsonType is the Content-Type of every JSON response, shared so that
// setting it allocates nothing.
var jsonType = []string{"application/json"}

// writeBody sends one complete JSON body with its status and length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is the client having gone away
}

// writeError emits the typed error envelope.
func writeError(w http.ResponseWriter, status int, kind, format string, args ...any) {
	buf := getBuf()
	defer putBuf(buf)
	buf.b = appendErrorResponse(buf.b, kind, fmt.Sprintf(format, args...))
	writeBody(w, status, buf.b)
}

// writeEngineError maps an engine error onto HTTP status + kind. Untyped
// errors are client errors (parse, bind, argument mismatch): everything the
// engine itself can get wrong is typed ErrInternal.
func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, dqo.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, KindQueueFull, "%v", err)
	case errors.Is(err, dqo.ErrTimeout):
		writeError(w, http.StatusGatewayTimeout, KindTimeout, "%v", err)
	case errors.Is(err, dqo.ErrCancelled):
		writeError(w, http.StatusRequestTimeout, KindCancelled, "%v", err)
	case errors.Is(err, dqo.ErrMemoryBudgetExceeded):
		writeError(w, http.StatusRequestEntityTooLarge, KindMemBudget, "%v", err)
	case errors.Is(err, dqo.ErrSpillLimitExceeded):
		writeError(w, http.StatusRequestEntityTooLarge, KindSpillBudget, "%v", err)
	case errors.Is(err, dqo.ErrInternal):
		writeError(w, http.StatusInternalServerError, KindInternal, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
	}
}

// maxBody bounds a request body. The largest legitimate request is a SQL
// text and a handful of arguments; anything near this is a mistake or abuse.
const maxBody = 1 << 20

// readBody reads the request body into buf and returns it as a string the
// decoded request may share. A body over maxBody is refused with the typed
// envelope (and false) before the handler looks at it.
func readBody(w http.ResponseWriter, r *http.Request, buf *wireBuf) (string, bool) {
	var err error
	buf.b, err = appendAll(buf.b[:0], http.MaxBytesReader(w, r.Body, maxBody))
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return string(buf.b), true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, KindInvalid, "request body: larger than %d bytes", tooLarge.Limit)
	default:
		writeError(w, http.StatusBadRequest, KindInvalid, "request body: %v", err)
	}
	return "", false
}

// readRequest reads the request body through buf and decodes it into req,
// answering the request itself (and returning false) when the body is
// oversize, unreadable or refused by the decoder.
func readRequest[T any](w http.ResponseWriter, r *http.Request, buf *wireBuf, decode func(string, *T) error, req *T) bool {
	body, ok := readBody(w, r, buf)
	if !ok {
		return false
	}
	if err := decode(body, req); err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, "request body: %v", err)
		return false
	}
	return true
}

// admit passes the request through the tenant's gate, then the global one.
// Tenant-first ordering is the isolation boundary: a request waiting for a
// global slot holds only its own tenant's slot, so a noisy tenant that
// saturates its quota queues (then sheds) against itself without pinning
// global capacity the other tenants need. The returned release frees both
// slots.
func (s *Server) admit(r *http.Request, tenant string) (release func(), err error) {
	relTenant, err := s.tenants.Enter(r.Context(), tenant)
	if err != nil {
		return nil, err
	}
	relGlobal, err := s.gate.Enter(r.Context())
	if err != nil {
		relTenant()
		return nil, err
	}
	return func() { relGlobal(); relTenant() }, nil
}

// timeout resolves a request's execution deadline from timeout_ms.
func (s *Server) timeout(millis int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if millis > 0 {
		d = time.Duration(millis) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// queryOptions builds the per-execution option set.
func (s *Server) queryOptions(timeoutMillis int64) []dqo.QueryOption {
	opts := []dqo.QueryOption{dqo.WithTimeout(s.timeout(timeoutMillis))}
	if s.cfg.MemPerQuery > 0 {
		opts = append(opts, dqo.WithMemoryLimit(s.cfg.MemPerQuery))
	}
	return opts
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "server is draining")
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	var req QueryRequest
	if !readRequest(w, r, buf, decodeQueryRequest, &req) {
		return
	}
	mode, err := ParseMode(req.Mode, s.cfg.DefaultMode)
	if err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
		return
	}
	tenant := ""
	if req.Session != "" {
		sess, ok := s.sessions.get(req.Session)
		if !ok {
			writeError(w, http.StatusNotFound, KindNotFound, "unknown or expired session %q", req.Session)
			return
		}
		tenant = sess.tenant
	}
	release, err := s.admit(r, tenant)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	defer release()

	start := time.Now()
	var res *dqo.Result
	if len(req.Args) > 0 {
		// Parameterised one-shot: prepare transiently so the execution rides
		// the plan-template cache exactly like /prepare + /execute would.
		args, cerr := ConvertArgs(req.Args)
		if cerr != nil {
			writeError(w, http.StatusBadRequest, KindInvalid, "%v", cerr)
			return
		}
		stmt, perr := s.db.Prepare(mode, req.SQL)
		if perr != nil {
			writeEngineError(w, perr)
			return
		}
		res, err = stmt.QueryWith(r.Context(), args, s.queryOptions(req.TimeoutMillis)...)
	} else {
		res, err = s.db.Query(r.Context(), mode, req.SQL, s.queryOptions(req.TimeoutMillis)...)
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	s.writeResult(w, buf, res, time.Since(start))
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "server is draining")
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	// An empty body is a valid anonymous-session request.
	var req SessionRequest
	if r.ContentLength != 0 && !readRequest(w, r, buf, decodeSessionRequest, &req) {
		return
	}
	sess, err := s.sessions.create(req.Tenant)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, KindQueueFull, "%v", err)
		return
	}
	buf.b = appendSessionResponse(buf.b[:0], &SessionResponse{
		Session:    sess.id,
		TTLSeconds: int64(s.cfg.SessionTTL / time.Second),
	})
	writeBody(w, http.StatusOK, buf.b)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.drop(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, KindNotFound, "unknown or expired session %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "server is draining")
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	var req PrepareRequest
	if !readRequest(w, r, buf, decodePrepareRequest, &req) {
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, "unknown or expired session %q", req.Session)
		return
	}
	mode, err := ParseMode(req.Mode, s.cfg.DefaultMode)
	if err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
		return
	}
	stmt, err := s.db.Prepare(mode, req.SQL)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	handle, err := sess.put(stmt, s.cfg.MaxStmts)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, KindQueueFull, "%v", err)
		return
	}
	buf.b = appendPrepareResponse(buf.b[:0], &PrepareResponse{
		Stmt:        handle,
		NumParams:   stmt.NumParams(),
		Fingerprint: stmt.Fingerprint(),
	})
	writeBody(w, http.StatusOK, buf.b)
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "server is draining")
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	var req ExecuteRequest
	if !readRequest(w, r, buf, decodeExecuteRequest, &req) {
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, "unknown or expired session %q", req.Session)
		return
	}
	stmt, ok := sess.get(req.Stmt)
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, "unknown statement %q in session", req.Stmt)
		return
	}
	args, err := ConvertArgs(req.Args)
	if err != nil {
		writeError(w, http.StatusBadRequest, KindInvalid, "%v", err)
		return
	}
	release, err := s.admit(r, sess.tenant)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	defer release()

	start := time.Now()
	res, err := stmt.QueryWith(r.Context(), args, s.queryOptions(req.TimeoutMillis)...)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	s.writeResult(w, buf, res, time.Since(start))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.db.WriteMetrics(w); err != nil {
		return
	}
	sessions, stmts := s.sessions.counts()
	_ = s.metrics.WriteProm(w, obs.HTTPGauges{
		Sessions:      sessions,
		PreparedStmts: stmts,
		Running:       s.gate.Running(),
		Queued:        s.gate.Queued(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "server is draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// writeResult encodes the result relation as the QueryResponse JSON shape,
// straight from its typed columns into buf. A result that stays under the
// buffer's flush mark leaves in one write with its Content-Length; a longer
// one goes out a bufferful at a time, so the row-major form of a large
// result never exists whole on the server.
func (s *Server) writeResult(w http.ResponseWriter, buf *wireBuf, res *dqo.Result, elapsed time.Duration) {
	enc, err := newRowEncoder(res)
	if err != nil {
		// Nothing has been written: the client gets a typed error, not a
		// body that stops in the middle of a row.
		writeError(w, http.StatusInternalServerError, KindInternal, "%v", err)
		return
	}
	rows := res.NumRows()
	if s.cfg.MaxRows > 0 && rows > s.cfg.MaxRows {
		rows = s.cfg.MaxRows
	}
	b := enc.appendHead(buf.b[:0])
	streaming := false
	for i := 0; i < rows; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		if b = enc.appendRow(b, i); len(b) < flushAt {
			continue
		}
		if !streaming {
			w.Header()["Content-Type"] = jsonType
			streaming = true
		}
		if _, err := w.Write(b); err != nil {
			buf.b = b
			return // the client went away
		}
		b = b[:0]
	}
	b = appendTail(b, res.NumRows(), elapsed.Microseconds())
	buf.b = b
	if streaming {
		_, _ = w.Write(b)
		return
	}
	writeBody(w, http.StatusOK, b)
}
