package physical

import (
	"fmt"
	"testing"

	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// referencePairs is the emission order every probe-major join reproduces —
// the chained multimap's (hashtable's multi_test.go keeps that table as the
// oracle of Multi itself): probe rows ascending, and per probe row the build
// rows holding its key latest first.
func referencePairs(build, probe []uint32) (buildRows, probeRows []int32) {
	rowsOf := make(map[uint32][]int32, len(build))
	for i := len(build) - 1; i >= 0; i-- {
		rowsOf[build[i]] = append(rowsOf[build[i]], int32(i))
	}
	for j, k := range probe {
		for _, i := range rowsOf[k] {
			buildRows, probeRows = append(buildRows, i), append(probeRows, int32(j))
		}
	}
	return buildRows, probeRows
}

// joinDiffInput is one pair of relations L(lk, lv) and R(rk, rv) whose keys
// all lie in [0, domain), so that either side can be SPHJ's build side.
type joinDiffInput struct {
	name        string
	left, right *storage.Relation
	dom         props.Domain
}

func joinDiffInputs() []joinDiffInput {
	r := xrand.New(23)
	const domain = 1 << 14
	draw := func(n int, distinct uint32, base uint32) []uint32 {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = base + r.Uint32n(distinct)
		}
		return keys
	}
	unique := func(n int) []uint32 {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(i)
		}
		r.ShuffleUint32(keys)
		return keys
	}
	rel := func(name, key, val string, keys []uint32) *storage.Relation {
		vals := make([]int64, len(keys))
		for i := range vals {
			vals[i] = int64(i)*7 + int64(len(name))
		}
		return storage.MustNewRelation(name, storage.NewUint32(key, keys), storage.NewInt64(val, vals))
	}
	big := 3 * minParallelChunk // large enough for the chunked probe
	var ins []joinDiffInput
	for _, in := range []struct {
		name   string
		lk, rk []uint32
	}{
		{"unique", unique(900), unique(700)},
		{"dup-left", draw(1200, 150, 0), unique(400)},
		{"dup-right", unique(500), draw(1500, 300, 100)},
		{"dup-both", draw(big, 2000, 0), draw(big+77, 2500, 500)},
		{"no-match", draw(300, 100, 0), draw(300, 100, 5000)},
		{"empty-left", nil, draw(50, 10, 0)},
		{"empty-right", draw(50, 10, 0), nil},
		{"sorted-probe", unique(600), func() []uint32 { // ascending with repeats: the sorted-output claim is made and checked
			keys := make([]uint32, 2000)
			for i := range keys {
				keys[i] = uint32(i / 3)
			}
			return keys
		}()},
	} {
		ins = append(ins, joinDiffInput{in.name, rel("L", "lk", "lv", in.lk), rel("R", "rk", "rv", in.rk),
			props.Domain{Known: true, Dense: true, Lo: 0, Hi: domain - 1, Distinct: domain}})
	}
	return ins
}

// expectedJoin assembles what the join must return from the reference pairs:
// the kept columns of each side gathered through them, in schema order.
func expectedJoin(t *testing.T, in joinDiffInput, swapped bool, cols []string) *storage.Relation {
	t.Helper()
	lk, rk := in.left.MustColumn("lk").Uint32s(), in.right.MustColumn("rk").Uint32s()
	var lrows, rrows []int32
	if swapped {
		rrows, lrows = referencePairs(rk, lk)
	} else {
		lrows, rrows = referencePairs(lk, rk)
	}
	var out []*storage.Column
	for _, side := range []struct {
		rel  *storage.Relation
		rows []int32
	}{{in.left, lrows}, {in.right, rrows}} {
		for _, c := range side.rel.Gather(nil, side.rows).Columns() {
			if cols == nil || contains(cols, c.Name()) {
				out = append(out, c)
			}
		}
	}
	return storage.MustNewRelation("want", out...)
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

func sameColumns(a, b *storage.Relation) error {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return fmt.Errorf("%d columns x %d rows, want %d x %d", a.NumCols(), a.NumRows(), b.NumCols(), b.NumRows())
	}
	for i, c := range a.Columns() {
		if w := b.Columns()[i]; c.Name() != w.Name() || !c.Equal(w) {
			return fmt.Errorf("column %d (%s) differs from the reference's %s", i, c.Name(), w.Name())
		}
	}
	return nil
}

// TestJoinVariantsAgainstReference is the join differential: HJ and SPHJ,
// building fresh, probing a table the caller built and kept (what an adopted
// view is) or one built directly on the hashtable package (what an explicit
// view is), with the table under the left or under the right input, keeping
// the left columns, the right columns or both, serial and at parallelism 2,
// return exactly the reference's rows in the reference's order. Each result is
// checked again after the next join has run: the row-id and table scratch two
// joins share through the pool is never part of a result.
func TestJoinVariantsAgainstReference(t *testing.T) {
	type held struct {
		label     string
		got, want *storage.Relation
	}
	var prev *held
	check := func(label string, got, want *storage.Relation) {
		t.Helper()
		if err := sameColumns(got, want); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev != nil {
			if err := sameColumns(prev.got, prev.want); err != nil {
				t.Fatalf("%s changed after %s ran: %v", prev.label, label, err)
			}
		}
		prev = &held{label, got, want}
	}
	for _, in := range joinDiffInputs() {
		for _, kind := range []JoinKind{HJ, SPHJ} {
			for _, swapped := range []bool{false, true} {
				build, buildKey := in.left, "lk"
				if swapped {
					build, buildKey = in.right, "rk"
				}
				for _, cols := range [][]string{{"lv"}, {"rk", "rv"}, nil} {
					want := expectedJoin(t, in, swapped, cols)
					for _, par := range []int{1, 2} {
						opt := JoinOptions{Hash: hashtable.Fibonacci, Parallel: par}
						label := fmt.Sprintf("%s/%s/swapped=%v/cols=%v/parallel=%d", in.name, kind, swapped, cols, par)

						got, err := JoinRel(in.left, in.right, "lk", "rk", kind, opt, in.dom, swapped, cols, nil)
						if err != nil {
							t.Fatalf("%s fresh: %v", label, err)
						}
						check(label+" fresh", got, want)

						// The caller's own build step, kept: an adopted view.
						serial := opt
						serial.Parallel = 1
						tab, err := BuildJoinTable(build, buildKey, kind, serial, in.dom)
						if err != nil {
							t.Fatalf("%s build: %v", label, err)
						}
						tab.Keep()
						kept := tab.Index()
						tab.Release()
						if got, err = JoinRel(in.left, in.right, "lk", "rk", kind, opt, props.Domain{}, swapped, cols, kept); err != nil {
							t.Fatalf("%s kept table: %v", label, err)
						}
						check(label+" kept table", got, want)

						// Built on the hashtable package, any hash function: an
						// explicit view.
						keys := build.MustColumn(buildKey).Uint32s()
						var explicit RowIndex
						if kind == HJ {
							explicit, err = hashtable.BuildMulti(hashtable.Murmur3Fin, keys, nil)
						} else {
							explicit, err = hashtable.BuildSPH(keys, uint32(in.dom.Lo), int(in.dom.Width()), nil)
						}
						if err != nil {
							t.Fatalf("%s explicit build: %v", label, err)
						}
						if got, err = JoinRel(in.left, in.right, "lk", "rk", kind, opt, props.Domain{}, swapped, cols, explicit); err != nil {
							t.Fatalf("%s explicit table: %v", label, err)
						}
						check(label+" explicit table", got, want)
					}
				}
			}
		}
	}
}

// TestJoinTableReleaseKeepsKeptTables: a table its builder released goes back
// to the scratch pool and the next build may overwrite it; a table that was
// kept first is untouched by every later build.
func TestJoinTableReleaseKeepsKeptTables(t *testing.T) {
	in := joinDiffInputs()[3] // dup-both
	keys := in.left.MustColumn("lk").Uint32s()
	probe := in.right.MustColumn("rk").Uint32s()
	wantBuild, _ := referencePairs(keys, probe)
	for _, kind := range []JoinKind{HJ, SPHJ} {
		tab, err := BuildJoinTable(in.left, "lk", kind, JoinOptions{}, in.dom)
		if err != nil {
			t.Fatal(err)
		}
		tab.Keep()
		kept := tab.Index()
		tab.Release()
		for i := 0; i < 3; i++ { // same size classes: these builds would reuse the kept arrays if they were pooled
			other, err := BuildJoinTable(in.right, "rk", kind, JoinOptions{}, in.dom)
			if err != nil {
				t.Fatal(err)
			}
			other.Release()
		}
		got := make([]int32, len(wantBuild))
		if n := kept.FillBatch(probe, 0, got, nil); n != len(wantBuild) {
			t.Fatalf("%s: kept table yields %d pairs, want %d", kind, n, len(wantBuild))
		}
		for i := range got {
			if got[i] != wantBuild[i] {
				t.Fatalf("%s: kept table changed under later builds at pair %d", kind, i)
			}
		}
	}
}
