package physical

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/storage"
)

// joinScratchPair is a foreign-key pair large enough for the parallel
// kernels to engage, its payload columns functions of the key so that a row
// gathered through a stale row id shows.
func joinScratchPair(seed uint64, rrows, srows int) (r, s *storage.Relation) {
	r0, s0 := datagen.FKPair(seed, datagen.FKConfig{RRows: rrows, SRows: srows, AGroups: rrows / 4, Dense: true})
	id, rid := r0.MustColumn("ID").Uint32s(), s0.MustColumn("R_ID").Uint32s()
	a, m := make([]int64, len(id)), make([]int64, len(rid))
	for i, k := range id {
		a[i] = int64(k)*3 + int64(seed)
	}
	for i, k := range rid {
		m[i] = int64(k)*5 + int64(i%7)
	}
	r = storage.MustNewRelation("R", r0.MustColumn("ID"), storage.NewInt64("A", a))
	s = storage.MustNewRelation("S", s0.MustColumn("R_ID"), storage.NewInt64("M", m))
	return r, s
}

// snapshot deep-copies a relation's integer columns.
func snapshot(rel *storage.Relation) map[string][]int64 {
	out := map[string][]int64{}
	for _, c := range rel.Columns() {
		switch c.Kind() {
		case storage.KindUint32:
			vals := make([]int64, c.Len())
			for i, v := range c.Uint32s() {
				vals[i] = int64(v)
			}
			out[c.Name()] = vals
		case storage.KindInt64:
			out[c.Name()] = slices.Clone(c.Int64s())
		}
	}
	return out
}

// TestPooledJoinScratchDoesNotEscape: the row-id arrays a join takes from
// the scratch pool go back once its output is gathered, and nothing of the
// output refers to them. A first join's result is verified — values, row by
// row — after a second, different join has run through the same pool, for
// every kernel, serial and parallel, with the output cut down to either
// side, and from several goroutines at once (the race detector's part).
func TestPooledJoinScratchDoesNotEscape(t *testing.T) {
	r1, s1 := joinScratchPair(1, 6000, 27000)
	r2, s2 := joinScratchPair(2, 9000, 21000)
	type variant struct {
		kind    JoinKind
		dop     int
		swapped bool
		cols    []string
	}
	var variants []variant
	for _, kind := range []JoinKind{HJ, SPHJ, SOJ, BSJ} {
		for _, dop := range []int{1, 2} {
			for _, cols := range [][]string{nil, {"A"}, {"M", "R_ID"}} {
				variants = append(variants, variant{kind, dop, false, cols}, variant{kind, dop, true, cols})
			}
		}
	}
	run := func(v variant, r, s *storage.Relation) (*storage.Relation, error) {
		opt := JoinOptions{Parallel: v.dop}
		dom := domainOf(r, "ID") // dense, and a superset of the foreign keys present
		if v.swapped {
			return JoinRelDomSwapped(r, s, "ID", "R_ID", v.kind, opt, dom, v.cols)
		}
		return JoinRelDom(r, s, "ID", "R_ID", v.kind, opt, dom, v.cols)
	}
	check := func(v variant) error {
		first, err := run(v, r1, s1)
		if err != nil {
			return err
		}
		before := snapshot(first)
		if _, err := run(v, r2, s2); err != nil { // same pool, other sizes and row ids
			return err
		}
		if first.NumRows() != s1.NumRows() {
			return fmt.Errorf("%d rows, want one per foreign key: %d", first.NumRows(), s1.NumRows())
		}
		after := snapshot(first)
		for name, vals := range before {
			if !slices.Equal(vals, after[name]) {
				return fmt.Errorf("column %s changed after the next join ran", name)
			}
		}
		// Every row is consistent with the key it joined on.
		full, err := run(variant{v.kind, v.dop, v.swapped, nil}, r1, s1)
		if err != nil {
			return err
		}
		all := snapshot(full)
		for i, id := range all["ID"] {
			if all["R_ID"][i] != id || all["A"][i] != id*3+1 || (all["M"][i]-id*5) < 0 || (all["M"][i]-id*5) >= 7 {
				return fmt.Errorf("row %d inconsistent: ID=%d R_ID=%d A=%d M=%d", i, id, all["R_ID"][i], all["A"][i], all["M"][i])
			}
		}
		for name, vals := range after {
			if !slices.Equal(vals, all[name]) {
				return fmt.Errorf("column %s of the cut-down output differs from the full join's", name)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(variants))
	work := make(chan int)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = check(variants[i])
			}
		}()
	}
	for i := range variants {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			v := variants[i]
			t.Errorf("%s dop %d swapped %v cols %v: %v", v.kind, v.dop, v.swapped, v.cols, err)
		}
	}
}

// TestJoinDropsUnreadSide: a side none of whose columns the output keeps
// gets no row-id array; the pairs are still counted.
func TestJoinDropsUnreadSide(t *testing.T) {
	r, s := joinScratchPair(3, 5000, 12000)
	left, right := r.MustColumn("ID").Uint32s(), s.MustColumn("R_ID").Uint32s()
	dom := domainOf(r, "ID")
	for _, kind := range JoinKinds() {
		left, right := left, right
		if kind == OJ {
			left, right = slices.Clone(left), slices.Clone(right)
			slices.Sort(left)
			slices.Sort(right)
		}
		for _, dop := range []int{1, 2} {
			both, err := joinSides(kind, left, right, dom, JoinOptions{Parallel: dop}, bothRows)
			if err != nil {
				t.Fatal(err)
			}
			for _, sides := range []pairSides{leftRows, rightRows} {
				one, err := joinSides(kind, left, right, dom, JoinOptions{Parallel: dop}, sides)
				if err != nil {
					t.Fatal(err)
				}
				wantLeft, wantRight := both.LeftIdx, both.RightIdx
				if sides == leftRows {
					wantRight = nil
				} else {
					wantLeft = nil
				}
				if one.Len() != both.Len() || !slices.Equal(one.LeftIdx, wantLeft) || !slices.Equal(one.RightIdx, wantRight) ||
					(one.LeftIdx == nil) != (wantLeft == nil) || (one.RightIdx == nil) != (wantRight == nil) {
					t.Fatalf("%s dop %d sides %b: row ids differ from the two-sided join's", kind, dop, sides)
				}
				one.Release()
			}
			both.Release()
		}
	}
}
