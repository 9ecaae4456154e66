//go:build faultinject

package faultinject

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// fresh starts a test from an empty registry and leaves one behind.
func fresh(t *testing.T) {
	t.Helper()
	Reset()
	t.Cleanup(Reset)
}

func wantCounts(t *testing.T, name string, hits, fired int64) {
	t.Helper()
	if h, f := Hits(name), Fired(name); h != hits || f != fired {
		t.Fatalf("%s: hits=%d fired=%d, want %d/%d", name, h, f, hits, fired)
	}
}

func TestUnarmedHitsAreCounted(t *testing.T) {
	fresh(t)
	if !Enabled {
		t.Fatal("Enabled is false under the faultinject tag")
	}
	for i := 0; i < 3; i++ {
		if err := Fire(PointSortxMerge); err != nil {
			t.Fatalf("unarmed point returned %v", err)
		}
	}
	wantCounts(t, PointSortxMerge, 3, 0)
}

// TestAfterSkipsExactlyN: After n lets n hits through, then acts on every
// later hit.
func TestAfterSkipsExactlyN(t *testing.T) {
	fresh(t)
	Set(PointExecBreaker, Action{Err: errBoom, After: 2})
	for i := 0; i < 5; i++ {
		err := Fire(PointExecBreaker)
		if (i < 2 && err != nil) || (i >= 2 && !errors.Is(err, errBoom)) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
	}
	wantCounts(t, PointExecBreaker, 5, 3)
}

func TestPanicAction(t *testing.T) {
	fresh(t)
	Set(PointStorageConcat, Action{Panic: "injected"})
	defer func() {
		if r := recover(); r != "injected" {
			t.Fatalf("recovered %v, want the armed panic value", r)
		}
		wantCounts(t, PointStorageConcat, 1, 1)
	}()
	Fire(PointStorageConcat)
	t.Fatal("armed panic point returned")
}

// TestDelayAction: a delay alone slows the hit and fails nothing; with Err
// it sleeps, then fails.
func TestDelayAction(t *testing.T) {
	fresh(t)
	const d = 20 * time.Millisecond
	for _, a := range []Action{{Delay: d}, {Delay: d, Err: errBoom}} {
		Set(PointExecPipeMorsel, a)
		start := time.Now()
		err := Fire(PointExecPipeMorsel)
		if elapsed := time.Since(start); elapsed < d {
			t.Fatalf("%+v: returned after %v", a, elapsed)
		}
		if !errors.Is(err, a.Err) {
			t.Fatalf("%+v: err = %v", a, err)
		}
	}
	wantCounts(t, PointExecPipeMorsel, 2, 2)
}

func TestClearDisarmsButKeepsCounters(t *testing.T) {
	fresh(t)
	Set(PointSpillWrite, Action{Err: errBoom})
	if err := Fire(PointSpillWrite); !errors.Is(err, errBoom) {
		t.Fatalf("armed: err = %v", err)
	}
	Clear(PointSpillWrite)
	if err := Fire(PointSpillWrite); err != nil {
		t.Fatalf("cleared: err = %v", err)
	}
	wantCounts(t, PointSpillWrite, 2, 1)
}

func TestResetZeroesEverything(t *testing.T) {
	fresh(t)
	Set(PointSpillRead, Action{Err: errBoom})
	Fire(PointSpillRead)
	Reset()
	wantCounts(t, PointSpillRead, 0, 0)
	if err := Fire(PointSpillRead); err != nil {
		t.Fatalf("reset left the point armed: %v", err)
	}
	wantCounts(t, PointSpillRead, 1, 0)
}

// TestSummary lists every registered point, reached or not, plus any name
// that was hit without being registered, in name order.
func TestSummary(t *testing.T) {
	fresh(t)
	const stray = "test.unregistered"
	Fire(PointSpillCleanup)
	Fire(stray)
	lines := strings.Split(strings.TrimSpace(Summary()), "\n")
	if lines[0] != "failure point coverage:" {
		t.Fatalf("header %q", lines[0])
	}
	var names []string
	for _, l := range lines[1:] {
		names = append(names, strings.Fields(l)[0])
	}
	want := append(slices.Clone(Points), stray)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("summary names %v, want %v", names, want)
	}
	for _, name := range []string{PointSpillCleanup, stray} {
		if line := fmt.Sprintf("%-24s hits=%-8d fired=0", name, 1); !strings.Contains(Summary(), line) {
			t.Fatalf("summary misses %q:\n%s", line, Summary())
		}
	}
}
