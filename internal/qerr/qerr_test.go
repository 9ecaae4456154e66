package qerr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestSentinelMatching(t *testing.T) {
	e := New(ErrMemoryBudgetExceeded, "need %d bytes", 64)
	if !errors.Is(e, ErrMemoryBudgetExceeded) {
		t.Fatalf("errors.Is failed for %v", e)
	}
	if errors.Is(e, ErrCancelled) {
		t.Fatalf("kind crosstalk: %v matched ErrCancelled", e)
	}
	var qe *Error
	if !errors.As(e, &qe) || qe.Kind != ErrMemoryBudgetExceeded {
		t.Fatalf("errors.As failed for %v", e)
	}
}

func TestFromContextErrors(t *testing.T) {
	cancelled := From(context.Canceled)
	if !errors.Is(cancelled, ErrCancelled) || !errors.Is(cancelled, context.Canceled) {
		t.Fatalf("From(context.Canceled) = %v; want both ErrCancelled and context.Canceled", cancelled)
	}
	timeout := From(fmt.Errorf("query: %w", context.DeadlineExceeded))
	if !errors.Is(timeout, ErrTimeout) || !errors.Is(timeout, context.DeadlineExceeded) {
		t.Fatalf("From(DeadlineExceeded) = %v; want both ErrTimeout and DeadlineExceeded", timeout)
	}
	if From(nil) != nil {
		t.Fatal("From(nil) != nil")
	}
	plain := errors.New("plain")
	if From(plain) != plain {
		t.Fatalf("From(plain) rewrote an untyped error")
	}
	// Already-typed errors pass through unchanged.
	typed := New(ErrQueueFull, "busy")
	if From(typed) != error(typed) {
		t.Fatalf("From(typed) rewrapped a typed error")
	}
}

func TestInternalPassThrough(t *testing.T) {
	inner := New(ErrMemoryBudgetExceeded, "injected")
	if got := Internal(inner, nil); got != inner {
		t.Fatalf("Internal should pass through an existing *Error, got %v", got)
	}
	e := Internal("boom", []byte("stack"))
	if !errors.Is(e, ErrInternal) {
		t.Fatalf("Internal(%q) does not match ErrInternal", "boom")
	}
	if len(e.Stack) == 0 {
		t.Fatal("Internal dropped the stack")
	}
	cause := errors.New("cause")
	if !errors.Is(Internal(cause, nil), cause) {
		t.Fatal("Internal dropped an error cause")
	}
}

func TestKind(t *testing.T) {
	if Kind(New(ErrTimeout, "t")) != ErrTimeout {
		t.Fatal("Kind missed ErrTimeout")
	}
	if Kind(errors.New("plain")) != nil {
		t.Fatal("Kind invented a taxonomy for a plain error")
	}
}

func TestRecoverTo(t *testing.T) {
	fn := func() (err error) {
		defer RecoverTo(&err)
		panic("kernel exploded")
	}
	err := fn()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("got %v, want ErrInternal", err)
	}
	var qe *Error
	if !errors.As(err, &qe) || len(qe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	// An already-set error is not overwritten.
	sentinel := errors.New("first")
	fn2 := func() (err error) {
		defer RecoverTo(&err)
		err = sentinel
		panic("second")
	}
	if got := fn2(); got != sentinel {
		t.Fatalf("RecoverTo overwrote existing error: %v", got)
	}
}

func TestPanicBoxTransfer(t *testing.T) {
	var box PanicBox
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer box.Guard()
			if i == 2 {
				panic("worker 2 died")
			}
		}(i)
	}
	wg.Wait()
	if err := box.Err(); !errors.Is(err, ErrInternal) {
		t.Fatalf("box.Err() = %v", err)
	}
	// Rethrow + RecoverTo round-trips without double wrapping.
	outer := func() (err error) {
		defer RecoverTo(&err)
		box.Rethrow()
		return nil
	}()
	if outer.Error() != box.Err().Error() {
		t.Fatalf("rethrow changed the error: %v vs %v", outer, box.Err())
	}
	var empty PanicBox
	empty.Rethrow() // no-op when nothing was caught
}
