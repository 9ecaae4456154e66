package physical

import (
	"math/rand"
	"reflect"
	"testing"

	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/sortx"
)

// The parallel kernels' contract is DOP-invariance: byte-identical output to
// the serial kernels at every worker count. Inputs here are sized above
// minParallelChunk so the parallel paths actually execute.

func sameGroupResult(t *testing.T, label string, want, got *GroupResult) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from the serial kernel's:\n got %+v\nwant %+v", label, got, want)
	}
}

func sameJoinResult(t *testing.T, label string, want, got *JoinResult) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d pairs, want %d", label, got.Len(), want.Len())
	}
	for i := range got.LeftIdx {
		if got.LeftIdx[i] != want.LeftIdx[i] || got.RightIdx[i] != want.RightIdx[i] {
			t.Fatalf("%s: pair %d = (%d,%d), want (%d,%d)",
				label, i, got.LeftIdx[i], got.RightIdx[i], want.LeftIdx[i], want.RightIdx[i])
		}
	}
	if got.SortedByKey != want.SortedByKey {
		t.Fatalf("%s: SortedByKey = %v, want %v", label, got.SortedByKey, want.SortedByKey)
	}
}

func TestParallelGroupMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 6 * minParallelChunk
	keys := make([]uint32, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = uint32(rng.Intn(500))
		vals[i] = int64(rng.Intn(1000)) - 500
	}
	dom := props.Domain{Known: true, Lo: 0, Hi: 499, Distinct: 500, Dense: true}

	for _, kind := range []GroupKind{HG, SPHG, SOG} {
		for _, fn := range hashtable.Funcs() {
			for _, srt := range sortx.Kinds() {
				serialOpt := GroupOptions{Hash: fn, Sort: srt}
				want, err := groupWide(kind, keys, vals, dom, serialOpt)
				if err != nil {
					t.Fatalf("%s serial: %v", kind, err)
				}
				for _, w := range []int{2, 3, 8} {
					parOpt := serialOpt
					parOpt.Parallel = w
					got, err := groupWide(kind, keys, vals, dom, parOpt)
					if err != nil {
						t.Fatalf("%s w=%d: %v", kind, w, err)
					}
					sameGroupResult(t, kind.String(), want, got)
				}
			}
		}
	}

	// COUNT-only (nil vals) exercises the other load loop.
	want, err := Group(HG, keys, nil, dom, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Group(HG, keys, nil, dom, GroupOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameGroupResult(t, "HG count-only", want, got)
}

func TestParallelJoinMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nl, nr := 3*minParallelChunk, 5*minParallelChunk
	left := make([]uint32, nl)
	right := make([]uint32, nr)
	for i := range left {
		left[i] = uint32(rng.Intn(2000))
	}
	for i := range right {
		right[i] = uint32(rng.Intn(2000))
	}
	dom := props.Domain{Known: true, Lo: 0, Hi: 1999, Distinct: 2000, Dense: true}

	for _, kind := range []JoinKind{HJ, SPHJ, SOJ} {
		for _, fn := range hashtable.Funcs() {
			for _, srt := range sortx.Kinds() {
				serialOpt := JoinOptions{Hash: fn, Sort: srt}
				want, err := Join(kind, left, right, dom, serialOpt)
				if err != nil {
					t.Fatalf("%s serial: %v", kind, err)
				}
				for _, w := range []int{2, 3, 8} {
					parOpt := serialOpt
					parOpt.Parallel = w
					got, err := Join(kind, left, right, dom, parOpt)
					if err != nil {
						t.Fatalf("%s w=%d: %v", kind, w, err)
					}
					sameJoinResult(t, kind.String(), want, got)
				}
			}
		}
	}
}

// Heavy duplicates stress the per-key chain ordering of the parallel hash
// join (descending build-row order per key must survive partitioning).
func TestParallelJoinDuplicateChains(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nl, nr := 2*minParallelChunk, 2*minParallelChunk
	left := make([]uint32, nl)
	right := make([]uint32, nr)
	for i := range left {
		left[i] = uint32(rng.Intn(7)) // ~1170 duplicates per key
	}
	for i := range right {
		right[i] = uint32(rng.Intn(7))
	}
	want, err := joinSides(HJ, left, right, props.Domain{}, JoinOptions{}, bothRows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := joinHashParallel(left, right, JoinOptions{Parallel: 4}, bothRows)
	if err != nil {
		t.Fatal(err)
	}
	sameJoinResult(t, "HJ dup-chains", want, got)
}
