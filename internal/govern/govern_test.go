package govern

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dqo/internal/qerr"
)

func TestBudgetReserveRelease(t *testing.T) {
	b := NewBudget(100)
	if err := b.Reserve(60); err != nil {
		t.Fatalf("reserve 60/100: %v", err)
	}
	if err := b.Reserve(41); !errors.Is(err, qerr.ErrMemoryBudgetExceeded) {
		t.Fatalf("reserve past limit: got %v", err)
	}
	if b.Used() != 60 {
		t.Fatalf("failed reserve leaked: used=%d", b.Used())
	}
	b.Release(60)
	if b.Used() != 0 {
		t.Fatalf("used=%d after release", b.Used())
	}
	if b.Peak() != 60 {
		t.Fatalf("peak=%d, want 60", b.Peak())
	}
}

func TestBudgetTrackOnly(t *testing.T) {
	b := NewBudget(0)
	if err := b.Reserve(1 << 40); err != nil {
		t.Fatalf("track-only budget failed: %v", err)
	}
	if b.Peak() != 1<<40 {
		t.Fatalf("peak=%d", b.Peak())
	}
}

func TestBudgetNilSafe(t *testing.T) {
	var b *Budget
	if err := b.Reserve(1 << 50); err != nil {
		t.Fatal("nil budget must be unlimited")
	}
	b.Release(1)
	if b.Used() != 0 || b.Peak() != 0 || b.Limit() != 0 {
		t.Fatal("nil budget should report zeros")
	}
}

func TestBudgetConcurrent(t *testing.T) {
	b := NewBudget(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				_ = b.Reserve(3)
				b.Release(3)
			}
		}()
	}
	wg.Wait()
	if b.Used() != 0 {
		t.Fatalf("used=%d after balanced reserve/release", b.Used())
	}
}

func TestCtlNilSafe(t *testing.T) {
	var c *Ctl
	if c.Err() != nil || c.Reserve(1<<50) != nil {
		t.Fatal("nil Ctl must be a no-op")
	}
	c.Release(1)
}

func TestCtlErrMapsTaxonomy(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Ctl{Ctx: ctx}
	if c.Err() != nil {
		t.Fatal("live context should not error")
	}
	cancel()
	if err := c.Err(); !errors.Is(err, qerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctl: %v", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := (&Ctl{Ctx: dctx}).Err(); !errors.Is(err, qerr.ErrTimeout) {
		t.Fatalf("deadline ctl: %v", err)
	}
}

// lateTimer is a context whose deadline has passed while its timer has not
// fired yet (as under one P while a kernel holds it): Err is still nil.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestCtlErrReadsTheDeadline: a handle reports a passed deadline as
// ErrTimeout wrapping context.DeadlineExceeded without waiting for the
// context's timer; a context without a deadline, or with one still ahead,
// never times out.
func TestCtlErrReadsTheDeadline(t *testing.T) {
	late := lateTimer{context.Background()}
	if late.Err() != nil {
		t.Fatal("test context must not report its own deadline")
	}
	err := (&Ctl{Ctx: late}).Err()
	if !errors.Is(err, qerr.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("passed deadline: %v", err)
	}
	if err := (&Ctl{Ctx: late}).For("Group(test)").Err(); !errors.Is(err, qerr.ErrTimeout) {
		t.Fatalf("labelled copy lost the deadline: %v", err)
	}
	if err := (&Ctl{Ctx: context.Background()}).Err(); err != nil {
		t.Fatalf("no deadline: %v", err)
	}
	live, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if err := (&Ctl{Ctx: live}).Err(); err != nil {
		t.Fatalf("future deadline: %v", err)
	}
}

func TestGateAdmitQueueReject(t *testing.T) {
	g := NewGate(1, 1)
	rel1, err := g.Enter(context.Background())
	if err != nil {
		t.Fatalf("first enter: %v", err)
	}
	// Second query queues; let it wait in a goroutine.
	entered := make(chan func(), 1)
	go func() {
		rel2, err := g.Enter(context.Background())
		if err != nil {
			t.Errorf("queued enter: %v", err)
			entered <- func() {}
			return
		}
		entered <- rel2
	}()
	// Give the goroutine time to join the queue, then a third is rejected.
	deadline := time.Now().Add(2 * time.Second)
	for g.queue.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := g.Queued(); got != 1 {
		t.Fatalf("Queued() = %d, want 1", got)
	}
	if _, err := g.Enter(context.Background()); !errors.Is(err, qerr.ErrQueueFull) {
		t.Fatalf("third enter: got %v, want ErrQueueFull", err)
	}
	rel1() // frees the slot; the queued query proceeds
	rel2 := <-entered
	rel2()
	rel2() // release is idempotent
	if g.Running() != 0 {
		t.Fatalf("running=%d after all released", g.Running())
	}
}

func TestGateCancelWhileQueued(t *testing.T) {
	g := NewGate(1, 4)
	rel, err := g.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Enter(ctx)
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for g.queue.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, qerr.ErrCancelled) {
		t.Fatalf("cancelled wait: %v", err)
	}
}

func TestGateNilUnlimited(t *testing.T) {
	var g *Gate
	if g.Queued() != 0 || g.Running() != 0 {
		t.Fatal("nil gate should report zero gauges")
	}
	for i := 0; i < 100; i++ {
		rel, err := g.Enter(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if NewGate(0, 5) != nil {
		t.Fatal("maxActive<=0 should return the unlimited nil gate")
	}
}

func TestRecoverTo(t *testing.T) {
	fn := func() (err error) {
		defer RecoverTo(&err)
		panic("kernel exploded")
	}
	err := fn()
	if !errors.Is(err, qerr.ErrInternal) {
		t.Fatalf("got %v, want ErrInternal", err)
	}
	var qe *qerr.Error
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
	if err := box.Err(); !errors.Is(err, qerr.ErrInternal) {
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
