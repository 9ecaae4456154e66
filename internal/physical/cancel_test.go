package physical

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/qerr"
	"dqo/internal/sortx"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// waitNoLeak fails the test if the goroutine count stays above the baseline
// for two seconds.
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelMidKernel runs fn under a fresh Ctl, cancels the context as soon as
// the kernel's budget charges show it is mid-flight, and returns the
// kernel's error. Reports false if the kernel finished before the
// cancellation landed (the caller retries).
func cancelMidKernel(t *testing.T, fn func(ctl *govern.Ctl) error) (error, bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mem := govern.NewBudget(0)
	ctl := &govern.Ctl{Ctx: ctx, Mem: mem}
	done := make(chan error, 1)
	go func() { done <- fn(ctl) }()
	for mem.Used() == 0 {
		select {
		case err := <-done:
			return err, false // finished before any charge landed
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	cancel()
	err := <-done
	if used := mem.Used(); used != 0 {
		t.Fatalf("budget leak after cancellation: %d bytes still reserved", used)
	}
	return err, err != nil
}

// TestJoinBuildCancellation cancels the context while the parallel hash
// join is building its partitioned tables and checks the kernel unwinds
// with the typed cancellation error, releases every reservation, and leaks
// no goroutines.
func TestJoinBuildCancellation(t *testing.T) {
	n := 1 << 20
	keys := make([]uint32, n)
	probe := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(i)
		probe[i] = uint32((i * 7) % n)
	}
	l := storage.MustNewRelation("l", storage.NewUint32("id", keys))
	r := storage.MustNewRelation("r", storage.NewUint32("fk", probe))
	base := runtime.NumGoroutine()
	opt := JoinOptions{Hash: hashtable.Murmur3Fin, Parallel: 4}
	for attempt := 0; attempt < 5; attempt++ {
		err, cancelled := cancelMidKernel(t, func(ctl *govern.Ctl) error {
			o := opt
			o.Ctl = ctl
			_, jerr := JoinRel(l, r, "id", "fk", HJ, o, props.Domain{}, false, nil, nil)
			return jerr
		})
		if !cancelled {
			continue // kernel won the race; try again
		}
		if !errors.Is(err, qerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
		}
		waitNoLeak(t, base)
		return
	}
	t.Fatal("join build never observed mid-flight in 5 attempts")
}

// TestParallelSortCancellation cancels the context while the parallel sort
// (per-worker runs plus k-way merge) is mid-flight, with the same typed
// error, reservation, and goroutine-leak assertions.
func TestParallelSortCancellation(t *testing.T) {
	n := 1 << 22
	keys := make([]uint32, n)
	rng := xrand.New(7)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	rel := storage.MustNewRelation("t", storage.NewUint32("key", keys))
	base := runtime.NumGoroutine()
	for attempt := 0; attempt < 5; attempt++ {
		err, cancelled := cancelMidKernel(t, func(ctl *govern.Ctl) error {
			_, serr := SortRel(rel, "key", sortx.Radix, 4, ctl)
			return serr
		})
		if !cancelled {
			continue
		}
		if !errors.Is(err, qerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
		}
		waitNoLeak(t, base)
		return
	}
	t.Fatal("parallel sort never observed mid-flight in 5 attempts")
}
