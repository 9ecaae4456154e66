package storage

import "testing"

func chunkTestRel(t *testing.T) *Relation {
	t.Helper()
	return MustNewRelation("t",
		NewUint32("k", []uint32{5, 3, 8, 1, 9, 2}),
		NewInt64("v", []int64{-1, 0, 7, 3, 2, 8}),
		NewFloat64("f", []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5}),
		NewString("s", []string{"a", "b", "a", "c", "b", "a"}),
	)
}

func TestRelationSlice(t *testing.T) {
	r := chunkTestRel(t)
	r.DeclareCorr("k", "v")
	s := r.Slice(2, 5)
	if s.NumRows() != 3 || s.NumCols() != 4 {
		t.Fatalf("slice shape %dx%d", s.NumRows(), s.NumCols())
	}
	if got := s.MustColumn("k").Uint32s(); got[0] != 8 || got[2] != 9 {
		t.Fatalf("slice rows wrong: %v", got)
	}
	if s.Row(0)[3].S != "a" {
		t.Fatalf("string slice lost dictionary: %v", s.Row(0))
	}
	if len(s.Corrs()) != 1 {
		t.Fatal("slice dropped declared correlations")
	}
	if empty := r.Slice(0, 0); empty.NumRows() != 0 || empty.NumCols() != 4 {
		t.Fatal("empty slice lost schema")
	}
}

func TestConcatRoundTrip(t *testing.T) {
	r := chunkTestRel(t)
	parts := []*Relation{r.Slice(0, 2), r.Slice(2, 3), r.Slice(3, 6)}
	got, err := Concat(nil, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) || got.Name() != "t" {
		t.Fatalf("concat of slices differs from original:\n%s", got)
	}
}

func TestConcatSinglePartIsIdentity(t *testing.T) {
	r := chunkTestRel(t)
	got, err := Concat(nil, []*Relation{r})
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatal("single-part concat copied")
	}
	if _, err := Concat(nil, nil); err == nil {
		t.Fatal("empty concat accepted")
	}
}

func TestConcatMergesForeignDictionaries(t *testing.T) {
	a := MustNewRelation("x", NewString("s", []string{"red", "blue"}))
	b := MustNewRelation("x", NewString("s", []string{"blue", "green"}))
	got, err := Concat(nil, []*Relation{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"red", "blue", "blue", "green"}
	for i, w := range want {
		if got.Row(i)[0].S != w {
			t.Fatalf("row %d = %q, want %q", i, got.Row(i)[0].S, w)
		}
	}
}

func TestConcatRejectsSchemaMismatch(t *testing.T) {
	a := MustNewRelation("x", NewUint32("k", []uint32{1}))
	b := MustNewRelation("x", NewInt64("k", []int64{1}))
	if _, err := Concat(nil, []*Relation{a, b}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	c := MustNewRelation("x", NewUint32("other", []uint32{1}))
	if _, err := Concat(nil, []*Relation{a, c}); err == nil {
		t.Fatal("name mismatch accepted")
	}
}

func TestMemBytes(t *testing.T) {
	r := chunkTestRel(t)
	// 6 rows × (4 + 8 + 8 + 4) bytes.
	if got := r.MemBytes(); got != 6*24 {
		t.Fatalf("MemBytes = %d, want %d", got, 6*24)
	}
}

// concatTable is a relation with one column of every plain kind plus a
// dictionary-coded one, wide enough to cut into several windows.
func concatTable() *Relation {
	const n = 40
	u32, u64, i64, f64, s := make([]uint32, n), make([]uint64, n), make([]int64, n), make([]float64, n), make([]string, n)
	for i := 0; i < n; i++ {
		u32[i], u64[i], i64[i], f64[i] = uint32(i*7%11), uint64(i)<<33, int64(i)-20, float64(i)/4
		s[i] = []string{"a", "b", "c"}[i%3]
	}
	return MustNewRelation("t", NewUint32("u32", u32), NewUint64("u64", u64), NewInt64("i64", i64),
		NewFloat64("f64", f64), NewString("s", s))
}

// copyConcat is the reference Concat: row by row into fresh storage.
func copyConcat(parts []*Relation) *Relation {
	var idx []int32
	var srcs []*Relation
	for _, p := range parts {
		for i := 0; i < p.NumRows(); i++ {
			idx = append(idx, int32(i))
			srcs = append(srcs, p)
		}
	}
	first := parts[0]
	cols := make([]*Column, first.NumCols())
	for j, c := range first.Columns() {
		switch c.Kind() {
		case KindUint32:
			out := make([]uint32, len(idx))
			for k, i := range idx {
				out[k] = srcs[k].cols[j].Uint32s()[i]
			}
			cols[j] = NewUint32(c.Name(), out)
		case KindUint64:
			out := make([]uint64, len(idx))
			for k, i := range idx {
				out[k] = srcs[k].cols[j].Uint64s()[i]
			}
			cols[j] = NewUint64(c.Name(), out)
		case KindInt64:
			out := make([]int64, len(idx))
			for k, i := range idx {
				out[k] = srcs[k].cols[j].Int64s()[i]
			}
			cols[j] = NewInt64(c.Name(), out)
		case KindFloat64:
			out := make([]float64, len(idx))
			for k, i := range idx {
				out[k] = srcs[k].cols[j].Float64s()[i]
			}
			cols[j] = NewFloat64(c.Name(), out)
		case KindString:
			out := make([]string, len(idx))
			for k, i := range idx {
				out[k] = srcs[k].cols[j].ValueAt(int(i)).S
			}
			cols[j] = NewString(c.Name(), out)
		}
	}
	return MustNewRelation(first.Name(), cols...)
}

// aliases reports whether column name of got is a window of the same column
// of base starting at row lo, with its capacity clipped to its length.
func aliases(got, base *Relation, name string, lo int) bool {
	g, b := got.MustColumn(name), base.MustColumn(name)
	if g.Len() == 0 {
		return false
	}
	switch g.Kind() {
	case KindUint32, KindString:
		return &g.u32[0] == &b.u32[lo] && cap(g.u32) == len(g.u32) && g.dict == b.dict
	case KindUint64:
		return &g.u64[0] == &b.u64[lo] && cap(g.u64) == len(g.u64)
	case KindInt64:
		return &g.i64[0] == &b.i64[lo] && cap(g.i64) == len(g.i64)
	default:
		return &g.f64[0] == &b.f64[lo] && cap(g.f64) == len(g.f64)
	}
}

// TestConcatAdjacentWindowsIsView: the morsels Slice hands out, concatenated
// in order, come back as a view of the relation they were cut from — every
// plain kind and same-dictionary string codes, from any starting row — with
// its own (empty) statistics cell.
func TestConcatAdjacentWindowsIsView(t *testing.T) {
	base := concatTable()
	for _, cuts := range [][]int{{0, 13, 27, 40}, {5, 6, 30}, {0, 1, 2, 3, 40}, {17, 39, 40}} {
		var parts []*Relation
		for i := 0; i+1 < len(cuts); i++ {
			parts = append(parts, base.Slice(cuts[i], cuts[i+1]))
		}
		got, err := Concat(nil, parts)
		if err != nil {
			t.Fatal(err)
		}
		if want := base.Slice(cuts[0], cuts[len(cuts)-1]); !got.Equal(want) {
			t.Fatalf("cuts %v: view differs from the window it covers", cuts)
		}
		for _, name := range base.ColumnNames() {
			if !aliases(got, base, name, cuts[0]) {
				t.Fatalf("cuts %v: column %s was copied (or its capacity not clipped)", cuts, name)
			}
		}
	}
	before := StatsComputations()
	got, _ := Concat(nil, []*Relation{base.Slice(0, 20), base.Slice(20, 40)})
	if st := got.MustColumn("u32").Stats(); st.Rows != 40 {
		t.Fatalf("view stats rows = %d, want 40", st.Rows)
	}
	if StatsComputations() == before {
		t.Fatal("view borrowed a statistics cell instead of owning an empty one")
	}
}

// TestConcatNonAdjacentPartsCopy: anything but back-to-back windows of one
// array takes the copy path — the result equals the row-by-row reference and
// shares no storage with its parts.
func TestConcatNonAdjacentPartsCopy(t *testing.T) {
	base := concatTable()
	twin := concatTable() // equal contents, different arrays
	foreign := MustNewRelation("t", NewUint32("u32", make([]uint32, 3)), NewUint64("u64", make([]uint64, 3)),
		NewInt64("i64", make([]int64, 3)), NewFloat64("f64", make([]float64, 3)), NewString("s", []string{"z", "a", "z"}))
	cases := map[string][]*Relation{
		"gap":            {base.Slice(0, 10), base.Slice(11, 20)},
		"overlap":        {base.Slice(0, 10), base.Slice(9, 20)},
		"swap":           {base.Slice(10, 20), base.Slice(0, 10)},
		"repeat":         {base.Slice(0, 10), base.Slice(0, 10)},
		"two arrays":     {base.Slice(0, 10), twin.Slice(10, 20)},
		"other dict":     {base.Slice(0, 10), foreign},
		"empty first":    {base.Slice(0, 0), base.Slice(0, 10), base.Slice(10, 20)},
		"empty middle":   {base.Slice(0, 10), base.Slice(10, 10), base.Slice(10, 20)},
		"empty last":     {base.Slice(0, 10), base.Slice(10, 20), base.Slice(20, 20)},
		"all empty":      {base.Slice(3, 3), base.Slice(3, 3)},
		"adjacent, then": {base.Slice(0, 10), base.Slice(10, 20), base.Slice(25, 30)},
	}
	for name, parts := range cases {
		got, err := Concat(nil, parts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := copyConcat(parts); !got.Equal(want) {
			t.Fatalf("%s: result differs from the row-by-row reference:\n%s", name, got)
		}
		for _, col := range base.ColumnNames() {
			for _, src := range []*Relation{base, twin} {
				for lo := 0; lo < src.NumRows(); lo++ {
					if aliases(got, src, col, lo) {
						t.Fatalf("%s: column %s aliases an input at row %d", name, col, lo)
					}
				}
			}
		}
	}
}

// TestConcatEncodedColumnsCopy: windows of an encoded column are decoded and
// copied; plain columns of the same relation still come back as views.
func TestConcatEncodedColumnsCopy(t *testing.T) {
	n := 3 * DefaultSegmentRows
	runs, wide := make([]uint32, n), make([]int64, n)
	for i := range runs {
		runs[i], wide[i] = uint32(i/500), int64(i)*977
	}
	plain := MustNewRelation("t", NewUint32("runs", runs), NewInt64("wide", wide))
	comp := plain.Compress()
	if comp.MustColumn("runs").Encoding() == EncNone {
		t.Fatal("runs column did not compress")
	}
	mid := n/2 + 7
	got, err := Concat(nil, []*Relation{comp.Slice(0, mid), comp.Slice(mid, n)})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(plain) || got.HasEncoded() {
		t.Fatal("concat of encoded windows is not the plain relation")
	}
	if !aliases(got, comp, "wide", 0) {
		t.Fatal("plain column next to an encoded one was copied")
	}
}

// TestConcatMixedAdjacency: adjacency is decided per column. A relation whose
// key column is cut from one array but whose payload column is not copies
// the payload only, and both columns have the full length.
func TestConcatMixedAdjacency(t *testing.T) {
	base := concatTable()
	other := concatTable()
	part := func(lo, hi int, payload *Relation) *Relation {
		return MustNewRelation("t", base.MustColumn("u32").Slice(lo, hi), payload.MustColumn("i64").Slice(lo, hi))
	}
	got, err := Concat(nil, []*Relation{part(0, 15, base), part(15, 40, other)})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := base.Project("u32", "i64")
	if !got.Equal(want) {
		t.Fatalf("mixed concat differs:\n%s", got)
	}
	if !aliases(got, base, "u32", 0) {
		t.Fatal("adjacent column was copied")
	}
	if aliases(got, base, "i64", 0) || got.MustColumn("i64").Len() != 40 {
		t.Fatal("non-adjacent column was not copied whole")
	}
}
