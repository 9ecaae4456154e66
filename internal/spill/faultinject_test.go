//go:build faultinject

package spill

import (
	"errors"
	"testing"

	"dqo/internal/faultinject"
	"dqo/internal/qerr"
)

// TestInjectedWriteFailureAbortsClean arms spill.write — which fires after a
// frame is charged, before it hits the disk — on the n-th frame of a run and
// on every frame read back: the failed writer's Abort must leave the query's
// disk budget at what the finished runs hold, before any Cleanup.
func TestInjectedWriteFailureAbortsClean(t *testing.T) {
	defer faultinject.Reset()
	rel := everyKind(400)
	d, disk := newTestDir(t, 0)
	sentinel := errors.New("injected disk failure")
	for _, nth := range []int{1, 2, 5} {
		faultinject.Set(faultinject.PointSpillWrite, faultinject.Action{Err: sentinel, After: nth - 1})
		w, err := d.NewRun("doomed")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= nth; i++ {
			err := w.Append(rel.Slice(0, 100*(i%4+1)))
			if i < nth && err != nil {
				t.Fatalf("frame %d of %d failed early: %v", i, nth, err)
			}
			if i == nth && (!errors.Is(err, qerr.ErrSpillIO) || !errors.Is(err, sentinel)) {
				t.Fatalf("frame %d: err = %v, want ErrSpillIO wrapping the sentinel", i, err)
			}
		}
		if disk.Used() == 0 {
			t.Fatal("vacuous: the failed frame was never charged")
		}
		w.Abort()
		if disk.Used() != 0 {
			t.Fatalf("failure on frame %d: %d disk bytes still accounted after Abort", nth, disk.Used())
		}
	}
	faultinject.Clear(faultinject.PointSpillWrite)

	// spill.read fires on every frame, by offset as in order.
	run := writeRun(t, d, rel.Slice(0, 10), rel.Slice(10, 20))
	rd, err := run.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	hits := faultinject.Hits(faultinject.PointSpillRead)
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.ReadAt(0); err != nil {
		t.Fatal(err)
	}
	if got := faultinject.Hits(faultinject.PointSpillRead) - hits; got != 2 {
		t.Fatalf("spill.read hit %d times for two frame reads", got)
	}
	faultinject.Set(faultinject.PointSpillRead, faultinject.Action{Err: sentinel})
	if _, err := rd.ReadAt(0); !errors.Is(err, sentinel) || !errors.Is(err, qerr.ErrSpillIO) {
		t.Fatalf("armed spill.read: err = %v, want ErrSpillIO wrapping the sentinel", err)
	}
}
