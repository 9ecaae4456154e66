package exec

import (
	"runtime"

	"dqo/internal/qerr"
)

// Pool is the bounded worker pool shared by one query execution. Pipeline
// breakers use it to drain independent inputs concurrently (the join
// build/probe sides are the Figure 2 producer bundles of the paper); later
// work can schedule morsel-parallel operators on the same pool, giving one
// admission-control point per query.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool admitting up to workers extra goroutines.
// workers <= 0 selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Run executes fns concurrently and waits for all of them, returning the
// first non-nil error. Parallelism is opportunistic: a task is handed to a
// goroutine only when a pool slot is immediately free, and run inline in
// the caller otherwise — so nested Run calls (a join below a join) can
// never deadlock on pool slots, and a saturated pool degrades to serial
// execution rather than unbounded goroutine growth. Every task runs to
// completion (tasks observe cancellation themselves via the ExecContext),
// so Run never leaks goroutines.
func (p *Pool) Run(fns ...func() error) error {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]()
	}
	var first error
	record := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	// A panicking task — inline or pooled — becomes a typed internal error
	// rather than killing the process from a lost goroutine.
	call := func(fn func() error) (err error) {
		defer qerr.RecoverTo(&err)
		return fn()
	}
	errs := make(chan error, len(fns)-1)
	spawned := 0
	for _, fn := range fns[:len(fns)-1] {
		select {
		case p.sem <- struct{}{}:
			spawned++
			fn := fn
			go func() {
				defer func() { <-p.sem }()
				errs <- call(fn)
			}()
		default:
			record(call(fn))
		}
	}
	record(call(fns[len(fns)-1]))
	for i := 0; i < spawned; i++ {
		record(<-errs)
	}
	return first
}
