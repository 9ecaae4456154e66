// Package qerr defines the engine's error taxonomy. Every failure that
// escapes DB.Query is (or wraps) one of the sentinel kinds below, so
// callers can dispatch with errors.Is without parsing strings:
//
//	ErrCancelled               the caller cancelled the query context
//	ErrTimeout                 WithTimeout (or a context deadline) expired
//	ErrMemoryBudgetExceeded    the query tried to reserve past WithMemoryLimit
//	ErrQueueFull               the admission gate rejected the query
//	ErrInternal                a panic inside the engine, converted to an error
//	ErrSpillLimitExceeded      spilled run files outgrew WithSpillLimit
//	ErrSpillIO                 a spill temp file could not be written, read back, or removed
//
// Wrapped errors keep their cause: errors.Is(err, qerr.ErrCancelled) and
// errors.Is(err, context.Canceled) both hold for a cancellation, so existing
// callers that test for the context sentinels keep working.
package qerr

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// Sentinel kinds. These are plain errors so tests and callers can use them
// directly as errors.Is targets.
var (
	ErrCancelled            = errors.New("query cancelled")
	ErrTimeout              = errors.New("query deadline exceeded")
	ErrMemoryBudgetExceeded = errors.New("query memory budget exceeded")
	ErrQueueFull            = errors.New("admission queue full")
	ErrInternal             = errors.New("internal error")
	ErrSpillLimitExceeded   = errors.New("query spill-disk budget exceeded")
	ErrSpillIO              = errors.New("spill file I/O failed")
)

// Error is a typed engine error: a taxonomy Kind, an optional underlying
// Cause, a human message, and (for ErrInternal) the goroutine stack captured
// at the panic site.
type Error struct {
	Kind  error  // one of the sentinels above
	Cause error  // underlying error, if any (e.g. context.Canceled)
	Msg   string // human-readable detail
	Stack []byte // panic stack for ErrInternal, else nil
}

func (e *Error) Error() string {
	switch {
	case e.Msg != "" && e.Cause != nil:
		return fmt.Sprintf("%v: %s: %v", e.Kind, e.Msg, e.Cause)
	case e.Msg != "":
		return fmt.Sprintf("%v: %s", e.Kind, e.Msg)
	case e.Cause != nil:
		return fmt.Sprintf("%v: %v", e.Kind, e.Cause)
	default:
		return e.Kind.Error()
	}
}

// Is makes errors.Is(err, qerr.ErrX) match on the Kind; the Cause chain is
// reached through Unwrap, so errors.Is(err, context.Canceled) also matches
// when the cause is a context cancellation.
func (e *Error) Is(target error) bool { return target == e.Kind }

// Unwrap exposes the cause to errors.Is/As chains.
func (e *Error) Unwrap() error { return e.Cause }

// New builds a typed error of the given kind with a formatted message.
func New(kind error, format string, args ...any) *Error {
	return &Error{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// Wrap attaches a taxonomy kind to an underlying cause. A nil cause returns
// the bare kind as an *Error.
func Wrap(kind error, cause error) *Error {
	return &Error{Kind: kind, Cause: cause}
}

// Internal converts a recovered panic value and its stack into a typed
// ErrInternal. A value that is already a typed *Error passes through
// unchanged, so re-panicking an ErrInternal (panic transfer between
// goroutines) does not nest wrappers.
func Internal(recovered any, stack []byte) *Error {
	if e, ok := recovered.(*Error); ok {
		return e
	}
	var cause error
	if err, ok := recovered.(error); ok {
		cause = err
	}
	return &Error{
		Kind:  ErrInternal,
		Cause: cause,
		Msg:   fmt.Sprintf("panic: %v", recovered),
		Stack: stack,
	}
}

// From maps an arbitrary error onto the taxonomy: context sentinels become
// ErrCancelled/ErrTimeout, errors already carrying a taxonomy kind pass
// through unchanged, and anything else is returned as-is.
func From(err error) error {
	if err == nil {
		return nil
	}
	var qe *Error
	if errors.As(err, &qe) {
		return err
	}
	switch {
	case errors.Is(err, context.Canceled):
		return Wrap(ErrCancelled, err)
	case errors.Is(err, context.DeadlineExceeded):
		return Wrap(ErrTimeout, err)
	}
	return err
}

// Kind reports the taxonomy sentinel for err, or nil if err carries none.
func Kind(err error) error {
	for _, k := range []error{ErrCancelled, ErrTimeout, ErrMemoryBudgetExceeded, ErrQueueFull, ErrInternal, ErrSpillLimitExceeded, ErrSpillIO} {
		if errors.Is(err, k) {
			return k
		}
	}
	return nil
}

// RecoverTo is a defer helper that converts a panic in the current function
// into a typed qerr.ErrInternal stored in *errp (unless *errp is already
// set). Usage:
//
//	defer qerr.RecoverTo(&err)
func RecoverTo(errp *error) {
	if r := recover(); r != nil {
		e := Internal(r, debug.Stack())
		if errp != nil && *errp == nil {
			*errp = e
		}
	}
}

// PanicBox transfers the first panic caught in worker goroutines back to the
// coordinator. Workers defer Guard(); after wg.Wait the coordinator calls
// Err() (or Rethrow()) to surface it. This keeps worker panics from killing
// the process while preserving the panic site's stack.
type PanicBox struct {
	mu    sync.Mutex
	first error
}

// Guard is deferred at the top of each worker goroutine.
func (p *PanicBox) Guard() {
	if r := recover(); r != nil {
		e := Internal(r, debug.Stack())
		p.mu.Lock()
		if p.first == nil {
			p.first = e
		}
		p.mu.Unlock()
	}
}

// Err returns the first captured panic as a typed error, or nil.
func (p *PanicBox) Err() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first
}

// Rethrow re-panics with the first captured panic, if any. Callers that
// cannot return an error use this to propagate the failure to an enclosing
// RecoverTo.
func (p *PanicBox) Rethrow() {
	if err := p.Err(); err != nil {
		panic(err)
	}
}
