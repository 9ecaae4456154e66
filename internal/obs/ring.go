package obs

import "sync"

// RingTracer is the built-in Tracer: a fixed-size in-memory ring buffer
// keeping the traces of the last N queries. It is the default tracer a DB
// opens with, cheap enough to leave on in production — per query it stores
// one trace, or the source of one still to be built, and evicts the oldest.
type RingTracer struct {
	mu    sync.Mutex
	buf   []slot
	next  int   // next write position
	count int64 // total traces ever recorded
}

// Deferred is a finished query whose trace is built when somebody reads it.
// Trace must return the same trace on every call and be safe for concurrent
// use.
type Deferred interface{ Trace() *QueryTrace }

// slot is one retained query: its trace, or until first read its source.
type slot struct {
	trace *QueryTrace
	src   Deferred
}

// resolve builds the slot's trace if it is still pending and drops the
// source, which may pin more than the trace does.
func (s *slot) resolve() *QueryTrace {
	if s.src != nil {
		s.trace, s.src = s.src.Trace(), nil
	}
	return s.trace
}

// NewRingTracer returns a ring tracer holding the last n traces (n < 1 is
// clamped to 1).
func NewRingTracer(n int) *RingTracer {
	if n < 1 {
		n = 1
	}
	return &RingTracer{buf: make([]slot, n)}
}

// TraceQuery implements Tracer.
func (r *RingTracer) TraceQuery(t *QueryTrace) { r.put(slot{trace: t}) }

// Defer records a finished query whose trace d builds on demand: most traces
// in a ring are evicted unread, so a query need not pay for rendering its
// span tree. Last, Traces and Settle build what is pending.
func (r *RingTracer) Defer(d Deferred) { r.put(slot{src: d}) }

func (r *RingTracer) put(s slot) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.count++
	r.mu.Unlock()
}

// Last returns the most recent trace (nil if none yet).
func (r *RingTracer) Last() *QueryTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := (r.next - 1 + len(r.buf)) % len(r.buf)
	return r.buf[i].resolve()
}

// Traces returns the retained traces, oldest first.
func (r *RingTracer) Traces() []*QueryTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*QueryTrace, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		if t := r.buf[(r.next+i)%len(r.buf)].resolve(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Settle builds every pending trace. A pending trace refers to the plan its
// query ran, and so to the tables that plan scanned; a DB settles its ring
// before replacing a table so the ring never keeps a dropped one alive.
func (r *RingTracer) Settle() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.buf {
		r.buf[i].resolve()
	}
}

// Count reports how many traces were ever recorded (not just retained).
func (r *RingTracer) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}
