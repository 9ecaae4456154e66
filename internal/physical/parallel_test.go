package physical

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
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
// join: descending build-row order per key must survive the chunked probe.
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
	got, err := Join(HJ, left, right, props.Domain{}, JoinOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameJoinResult(t, "HJ dup-chains", want, got)
}

// TestHashJoinIsDOPInvariant: an HJ builds one table at every parallelism and
// probes it in contiguous chunks, so each relation-level way of running it —
// a fresh build keeping both inputs or the probe side's alone, the caller's
// own build step then a probe through its index, and match counts keeping
// either input — returns at 2 and 4 workers exactly the relation it returns
// at 1, row order included. The build side holds unique or duplicated keys
// and either input builds.
func TestHashJoinIsDOPInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	keys := func(n, distinct int) []uint32 {
		ks := make([]uint32, n)
		for i := range ks {
			ks[i] = uint32(rng.Intn(distinct))
		}
		return ks
	}
	rel := func(name string, ks []uint32) *storage.Relation {
		vals := make([]int64, len(ks))
		for i := range vals {
			vals[i] = int64(i)*3 - 7
		}
		return storage.MustNewRelation(name, storage.NewUint32(name+"k", ks), storage.NewInt64(name+"v", vals))
	}
	unique := make([]uint32, 3*minParallelChunk)
	for i := range unique {
		unique[i] = uint32(i)
	}
	rng.Shuffle(len(unique), func(i, j int) { unique[i], unique[j] = unique[j], unique[i] })
	probe := keys(5*minParallelChunk, 4*minParallelChunk)
	for _, in := range []struct {
		name        string
		left, right *storage.Relation
	}{
		{"unique", rel("L", unique), rel("R", probe)},
		{"dup", rel("L", keys(3*minParallelChunk, 700)), rel("R", probe)},
	} {
		for _, swapped := range []bool{false, true} {
			build, buildKey, buildCols, probeCols := in.left, "Lk", []string{"Lk", "Lv"}, []string{"Rk", "Rv"}
			if swapped {
				build, buildKey, buildCols, probeCols = in.right, "Rk", probeCols, buildCols
			}
			ways := []struct {
				name     string
				weighted bool // the output is match counts, not pairs
				run      func(opt JoinOptions) (*storage.Relation, error)
			}{
				{"fresh", false, func(opt JoinOptions) (*storage.Relation, error) {
					return JoinRel(in.left, in.right, "Lk", "Rk", HJ, opt, props.Domain{}, swapped, nil, nil)
				}},
				{"fresh-probe-side", false, func(opt JoinOptions) (*storage.Relation, error) { // the per-key counts expanded
					return JoinRel(in.left, in.right, "Lk", "Rk", HJ, opt, props.Domain{}, swapped, probeCols, nil)
				}},
				{"built", false, func(opt JoinOptions) (*storage.Relation, error) {
					tab, err := BuildJoinTable(build, buildKey, HJ, opt, props.Domain{})
					if err != nil {
						return nil, err
					}
					defer tab.Release()
					return JoinRel(in.left, in.right, "Lk", "Rk", HJ, opt, props.Domain{}, swapped, nil, tab.Index())
				}},
				{"counts-probe", true, func(opt JoinOptions) (*storage.Relation, error) {
					return CountJoinRel(in.left, in.right, "Lk", "Rk", HJ, opt, props.Domain{}, swapped, probeCols, nil)
				}},
				{"counts-build", true, func(opt JoinOptions) (*storage.Relation, error) {
					return CountJoinRel(in.left, in.right, "Lk", "Rk", HJ, opt, props.Domain{}, swapped, buildCols, nil)
				}},
			}
			for _, way := range ways {
				label := fmt.Sprintf("%s/swapped=%v/%s", in.name, swapped, way.name)
				want, err := way.run(JoinOptions{Hash: hashtable.Murmur3Fin, Parallel: 1})
				if err != nil {
					t.Fatalf("%s serial: %v", label, err)
				}
				if _, weighted := want.Column(WeightCol); weighted != way.weighted {
					t.Fatalf("%s: weighted = %v: the join did not run the way under test", label, weighted)
				}
				for _, par := range []int{2, 4} {
					got, err := way.run(JoinOptions{Hash: hashtable.Murmur3Fin, Parallel: par})
					if err != nil {
						t.Fatalf("%s parallel=%d: %v", label, par, err)
					}
					if err := sameColumns(got, want); err != nil {
						t.Fatalf("%s parallel=%d: %v", label, par, err)
					}
				}
			}
		}
	}
}
