package storage

import (
	"sync"
	"testing"
)

// computations runs f and returns how many exact statistics scans it caused.
func computations(f func()) int64 {
	before := StatsComputations()
	f()
	return StatsComputations() - before
}

func unsortedKeys(n int) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32((i * 7919) % n)
	}
	return keys
}

// TestStatsSharedByWholeColumnViews: whichever of a column and its Rename /
// Project views is asked first computes the statistics, once, for all.
func TestStatsSharedByWholeColumnViews(t *testing.T) {
	base := NewUint32("k", unsortedKeys(1000))
	rel := MustNewRelation("t", base, NewInt64("v", make([]int64, 1000)))
	first := base.Rename("a.k")
	if n := computations(func() { first.Stats() }); n != 1 {
		t.Fatalf("first view computed %d times, want 1", n)
	}
	proj, err := rel.Project("k")
	if err != nil {
		t.Fatal(err)
	}
	n := computations(func() {
		for _, c := range []*Column{base, base.Rename("b.k"), first.Rename("c.k"), proj.MustColumn("k")} {
			if st := c.Stats(); st.Distinct != 1000 || st.Sorted {
				t.Errorf("%s: stats %+v", c.Name(), st)
			}
		}
	})
	if n != 0 {
		t.Fatalf("later views rescanned the data %d times", n)
	}
}

// TestSetResetStatsActOnTheSharedCell: statistics describe the data, so
// declaring or discarding them through a view does so for the viewed column.
func TestSetResetStatsActOnTheSharedCell(t *testing.T) {
	base := NewUint32("k", []uint32{3, 1, 2})
	view := base.Rename("t.k")
	view.SetStats(Stats{Rows: 3, Distinct: 99})
	if base.Stats().Distinct != 99 {
		t.Fatal("SetStats through a view did not reach the column")
	}
	view.ResetStats()
	if n := computations(func() { base.Stats() }); n != 1 || base.Stats().Distinct != 3 {
		t.Fatalf("ResetStats through a view: %d recomputations, stats %+v", n, base.Stats())
	}
}

// TestDerivedColumnsOwnTheirStats: Slice, Gather and Concat outputs hold
// different rows, so they neither read nor fill the source's cell; Compress
// and Materialize hold the same rows in another column and carry the
// statistics over by value, not by reference.
func TestDerivedColumnsOwnTheirStats(t *testing.T) {
	keys := unsortedKeys(3 * DefaultSegmentRows)
	for i := range keys {
		keys[i] %= 16 // few distinct values, so the column compresses
	}
	src := MustNewRelation("t", NewUint32("k", keys))
	rows := src.NumRows()
	whole := make([]int32, rows)
	for i := range whole {
		whole[i] = int32(i)
	}
	cat, err := Concat(nil, []*Relation{src.Slice(0, rows/2), src.Slice(rows/2, rows)})
	if err != nil {
		t.Fatal(err)
	}
	derived := map[string]*Relation{
		"Slice":  src.Slice(0, rows),
		"Gather": src.Gather(nil, whole),
		"Concat": cat,
	}
	for name, rel := range derived {
		c := rel.MustColumn("k")
		if n := computations(func() { c.Stats() }); n != 1 {
			t.Errorf("%s output computed %d times, want its own 1", name, n)
		}
		c.SetStats(Stats{Rows: rows, Distinct: -1})
	}
	base := src.MustColumn("k")
	if n := computations(func() { base.Stats() }); n != 1 {
		t.Fatalf("a derived column filled the source's cell (%d computations, want 1)", n)
	}
	if base.Stats().Distinct != 16 {
		t.Fatalf("a derived column's SetStats wrote through: %+v", base.Stats())
	}

	comp := src.Compress()
	cc := comp.MustColumn("k")
	if cc.Encoding() == EncNone {
		t.Fatal("test column did not compress")
	}
	plain := comp.Materialize().MustColumn("k")
	if n := computations(func() { cc.Stats(); plain.Stats() }); n != 0 {
		t.Fatalf("Compress/Materialize dropped the known statistics (%d rescans)", n)
	}
	cc.SetStats(Stats{Rows: rows, Distinct: -2})
	plain.SetStats(Stats{Rows: rows, Distinct: -3})
	base.ResetStats()
	if base.Stats().Distinct != 16 || cc.Stats().Distinct != -2 || plain.Stats().Distinct != -3 {
		t.Fatalf("Compress/Materialize share a cell: base %+v, compressed %+v, materialised %+v",
			base.Stats(), cc.Stats(), plain.Stats())
	}
}

// TestStatsConcurrentFirstUse: views of one column asked at once from many
// goroutines compute once (run under -race).
func TestStatsConcurrentFirstUse(t *testing.T) {
	base := NewUint32("k", unsortedKeys(50000))
	const workers = 8
	got := make([]Stats, workers)
	n := computations(func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = base.Rename("v.k").Stats()
			}(w)
		}
		wg.Wait()
	})
	if n != 1 {
		t.Fatalf("%d computations for %d concurrent first callers, want 1", n, workers)
	}
	for w, st := range got {
		if st != got[0] || st.Distinct != 50000 {
			t.Fatalf("worker %d saw %+v, worker 0 %+v", w, st, got[0])
		}
	}
}

// TestKeyRangeMatchesStatsKeys: a literal range mapped by KeyRange compares
// with a column's statistics the way the values themselves compare — for an
// int64 column, whose keys have the sign bit flipped, W < 50 over values
// -5..70 overlaps [Min, Max] — and 2^32, the top of the literal domain,
// bounds nothing in a 64-bit kind.
func TestKeyRangeMatchesStatsKeys(t *testing.T) {
	st := NewInt64("W", []int64{-5, 3, 70}).Stats()
	lo, hi, ok := KindInt64.KeyRange(0, 50)
	if !ok || lo > st.Max || hi <= st.Min || !(st.Min < lo && lo < hi && hi < st.Max) {
		t.Fatalf("W in [0, 50) keys [%#x, %#x), stats [%#x, %#x]", lo, hi, st.Min, st.Max)
	}
	big := NewUint64("U", []uint64{1 << 40}).Stats()
	if lo, hi, ok := KindUint64.KeyRange(5, 1<<32); !ok || lo > big.Max || hi <= big.Min {
		t.Fatalf("U >= 5 keys [%#x, %#x) misses %#x", lo, hi, big.Min)
	}
	if lo, hi, ok := KindUint32.KeyRange(5, 9); !ok || lo != 5 || hi != 9 {
		t.Fatal("uint32 literals are their own keys")
	}
	if _, _, ok := KindFloat64.KeyRange(0, 1); ok {
		t.Fatal("float64 has no key space")
	}
}
