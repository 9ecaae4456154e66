package storage

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindUint32:  "uint32",
		KindUint64:  "uint64",
		KindInt64:   "int64",
		KindFloat64: "float64",
		KindString:  "string",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
		if !k.Valid() {
			t.Errorf("Kind %s not Valid", want)
		}
	}
	if KindInvalid.Valid() {
		t.Error("KindInvalid reported Valid")
	}
	if KindFloat64.Integer() {
		t.Error("float64 reported Integer")
	}
	if !KindString.Integer() {
		t.Error("string (dict codes) should be Integer (key-able)")
	}
}

func TestDictInternAndLookup(t *testing.T) {
	d := NewDict()
	a := d.Intern("apple")
	b := d.Intern("banana")
	a2 := d.Intern("apple")
	if a != a2 {
		t.Fatalf("re-interning changed code: %d vs %d", a, a2)
	}
	if a == b {
		t.Fatal("distinct strings share a code")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Lookup(a) != "apple" || d.Lookup(b) != "banana" {
		t.Fatal("Lookup does not invert Intern")
	}
	if c, ok := d.Code("banana"); !ok || c != b {
		t.Fatal("Code lookup failed")
	}
	if _, ok := d.Code("cherry"); ok {
		t.Fatal("Code found absent string")
	}
}

func TestDictCodesAreDense(t *testing.T) {
	d := NewDict()
	for i, s := range []string{"x", "y", "z", "x", "w", "y"} {
		c := d.Intern(s)
		if int(c) >= d.Len() {
			t.Fatalf("insert %d: code %d not dense (dict size %d)", i, c, d.Len())
		}
	}
	if d.Len() != 4 {
		t.Fatalf("dict size %d, want 4", d.Len())
	}
}

func TestDictLookupPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup out of range did not panic")
		}
	}()
	NewDict().Lookup(0)
}

func TestDictClone(t *testing.T) {
	d := NewDict()
	d.Intern("a")
	c := d.Clone()
	c.Intern("b")
	if d.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone not independent: orig %d clone %d", d.Len(), c.Len())
	}
}

func TestColumnAccessors(t *testing.T) {
	u32 := NewUint32("k", []uint32{3, 1, 2})
	if u32.Kind() != KindUint32 || u32.Len() != 3 || u32.Name() != "k" {
		t.Fatal("uint32 column metadata wrong")
	}
	if u32.Uint32s()[0] != 3 {
		t.Fatal("Uint32s wrong")
	}
	i64 := NewInt64("v", []int64{-5, 0, 5})
	if i64.Int64s()[0] != -5 {
		t.Fatal("Int64s wrong")
	}
	f64 := NewFloat64("f", []float64{1.5})
	if f64.Float64s()[0] != 1.5 {
		t.Fatal("Float64s wrong")
	}
	u64 := NewUint64("u", []uint64{9})
	if u64.Uint64s()[0] != 9 {
		t.Fatal("Uint64s wrong")
	}
}

func TestColumnAccessorPanicsOnKindMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int64s on uint32 column did not panic")
		}
	}()
	NewUint32("k", nil).Int64s()
}

func TestStringColumnRoundTrip(t *testing.T) {
	vals := []string{"red", "green", "red", "blue"}
	c := NewString("color", vals)
	if c.Kind() != KindString || c.Len() != 4 {
		t.Fatal("string column metadata wrong")
	}
	for i, want := range vals {
		if got := c.ValueAt(i).S; got != want {
			t.Fatalf("row %d: %q, want %q", i, got, want)
		}
	}
	if c.Dict().Len() != 3 {
		t.Fatalf("dict size %d, want 3", c.Dict().Len())
	}
	// Codes of a freshly built string column are dense.
	st := c.Stats()
	if !st.Dense {
		t.Fatal("string codes should be dense")
	}
}

func TestInt64KeysOrderPreserving(t *testing.T) {
	c := NewInt64("v", []int64{-10, -1, 0, 1, 10})
	keys := c.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("key mapping not order-preserving at %d: %d >= %d", i, keys[i-1], keys[i])
		}
	}
}

func TestKeyAtMatchesKeys(t *testing.T) {
	f := func(vals []int64) bool {
		c := NewInt64("v", vals)
		keys := c.Keys()
		for i := range vals {
			if c.KeyAt(i) != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSortedDense(t *testing.T) {
	c := NewUint32("k", []uint32{5, 5, 6, 7, 7, 8})
	st := c.Stats()
	if !st.Sorted || !st.Dense || st.Distinct != 4 || st.Min != 5 || st.Max != 8 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestStatsUnsortedSparse(t *testing.T) {
	c := NewUint32("k", []uint32{10, 2, 900})
	st := c.Stats()
	if st.Sorted || st.Dense || st.Distinct != 3 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if _, _, ok := st.DenseDomain(); ok {
		t.Fatal("sparse column reported a dense domain")
	}
}

func TestStatsEmptyColumn(t *testing.T) {
	st := NewUint32("k", nil).Stats()
	if st.Rows != 0 || !st.Sorted || !st.Dense || st.Distinct != 0 {
		t.Fatalf("empty column stats wrong: %+v", st)
	}
}

func TestStatsSingleValueIsDense(t *testing.T) {
	st := NewUint32("k", []uint32{42, 42, 42}).Stats()
	if !st.Dense || st.Distinct != 1 {
		t.Fatalf("constant column stats wrong: %+v", st)
	}
	lo, hi, ok := st.DenseDomain()
	if !ok || lo != 42 || hi != 42 {
		t.Fatalf("DenseDomain = (%d,%d,%v)", lo, hi, ok)
	}
}

func TestSetStatsOverrides(t *testing.T) {
	c := NewUint32("k", []uint32{1, 2, 3})
	c.SetStats(Stats{Rows: 3, Distinct: 99})
	if c.Stats().Distinct != 99 {
		t.Fatal("SetStats ignored")
	}
	c.ResetStats()
	if c.Stats().Distinct != 3 {
		t.Fatal("ResetStats did not recompute")
	}
}

func TestStatsPropertyMatchesBruteForce(t *testing.T) {
	f := func(vals []uint32) bool {
		// Limit the domain so dense cases actually occur.
		for i := range vals {
			vals[i] %= 8
		}
		st := NewUint32("k", vals).Stats()
		distinct := map[uint32]bool{}
		sorted := true
		var mn, mx uint32
		for i, v := range vals {
			if i == 0 {
				mn, mx = v, v
			}
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			if i > 0 && vals[i-1] > v {
				sorted = false
			}
			distinct[v] = true
		}
		if st.Rows != len(vals) || st.Sorted != sorted || st.Distinct != len(distinct) {
			return false
		}
		if len(vals) > 0 {
			dense := uint64(len(distinct)) == uint64(mx)-uint64(mn)+1
			if st.Min != uint64(mn) || st.Max != uint64(mx) || st.Dense != dense {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherAndSlice(t *testing.T) {
	c := NewUint32("k", []uint32{10, 20, 30, 40})
	g := c.Gather(nil, []int32{3, 0, 0})
	want := []uint32{40, 10, 10}
	for i, w := range want {
		if g.Uint32s()[i] != w {
			t.Fatalf("gather[%d] = %d, want %d", i, g.Uint32s()[i], w)
		}
	}
	s := c.Slice(1, 3)
	if s.Len() != 2 || s.Uint32s()[0] != 20 {
		t.Fatal("slice wrong")
	}
}

func TestGatherString(t *testing.T) {
	c := NewString("s", []string{"a", "b", "c"})
	g := c.Gather(nil, []int32{2, 1})
	if g.ValueAt(0).S != "c" || g.ValueAt(1).S != "b" {
		t.Fatal("string gather wrong")
	}
}

func TestRelationBasics(t *testing.T) {
	r := MustNewRelation("t",
		NewUint32("id", []uint32{1, 2, 3}),
		NewInt64("v", []int64{10, 20, 30}),
	)
	if r.NumRows() != 3 || r.NumCols() != 2 || r.Name() != "t" {
		t.Fatal("relation metadata wrong")
	}
	if _, ok := r.Column("missing"); ok {
		t.Fatal("found missing column")
	}
	c := r.MustColumn("v")
	if c.Int64s()[2] != 30 {
		t.Fatal("column content wrong")
	}
	names := r.ColumnNames()
	if names[0] != "id" || names[1] != "v" {
		t.Fatal("column order wrong")
	}
}

func TestRelationRejectsMismatchedLengths(t *testing.T) {
	_, err := NewRelation("t",
		NewUint32("a", []uint32{1, 2}),
		NewUint32("b", []uint32{1}),
	)
	if err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestRelationRejectsDuplicateNames(t *testing.T) {
	_, err := NewRelation("t",
		NewUint32("a", []uint32{1}),
		NewInt64("a", []int64{1}),
	)
	if err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestRelationProjectAndGather(t *testing.T) {
	r := MustNewRelation("t",
		NewUint32("a", []uint32{1, 2, 3}),
		NewUint32("b", []uint32{4, 5, 6}),
	)
	p, err := r.Project("b")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 1 || p.MustColumn("b").Uint32s()[0] != 4 {
		t.Fatal("project wrong")
	}
	if _, err := r.Project("zzz"); err == nil {
		t.Fatal("project of missing column accepted")
	}
	g := r.Gather(nil, []int32{2, 0})
	if g.MustColumn("a").Uint32s()[0] != 3 || g.MustColumn("b").Uint32s()[1] != 4 {
		t.Fatal("relation gather wrong")
	}
}

func TestRelationEqual(t *testing.T) {
	a := MustNewRelation("t", NewUint32("k", []uint32{1, 2}))
	b := MustNewRelation("t", NewUint32("k", []uint32{1, 2}))
	c := MustNewRelation("t", NewUint32("k", []uint32{2, 1}))
	if !a.Equal(b) {
		t.Fatal("identical relations not Equal")
	}
	if a.Equal(c) {
		t.Fatal("different relations Equal")
	}
}

func TestRelationStringTruncates(t *testing.T) {
	vals := make([]uint32, 50)
	r := MustNewRelation("big", NewUint32("k", vals))
	s := r.String()
	if !strings.Contains(s, "more rows") {
		t.Fatalf("String did not truncate: %s", s)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := MustNewRelation("t",
		NewUint32("id", []uint32{1, 2}),
		NewInt64("delta", []int64{-5, 7}),
		NewFloat64("score", []float64{0.5, 1.25}),
		NewString("tag", []string{"x", "y"}),
		NewUint64("big", []uint64{1 << 40, 2}),
	)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	spec := []ColumnSpec{
		{"id", KindUint32}, {"delta", KindInt64}, {"score", KindFloat64},
		{"tag", KindString}, {"big", KindUint64},
	}
	got, err := ReadCSV(&buf, "t", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(got) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", r, got)
	}
}

func TestCSVErrors(t *testing.T) {
	spec := []ColumnSpec{{"id", KindUint32}}
	if _, err := ReadCSV(strings.NewReader("wrongname\n1\n"), "t", spec); err == nil {
		t.Fatal("header mismatch accepted")
	}
	if _, err := ReadCSV(strings.NewReader("id\nnotanumber\n"), "t", spec); err == nil {
		t.Fatal("bad uint accepted")
	}
	if _, err := ReadCSV(strings.NewReader("id,extra\n1,2\n"), "t", spec); err == nil {
		t.Fatal("column count mismatch accepted")
	}
}

func TestRenameSharesData(t *testing.T) {
	c := NewUint32("a", []uint32{1, 2})
	r := c.Rename("b")
	if r.Name() != "b" || c.Name() != "a" {
		t.Fatal("rename wrong")
	}
	if &r.Uint32s()[0] != &c.Uint32s()[0] {
		t.Fatal("rename copied data")
	}
}

func TestDeclareAndVerifyCorr(t *testing.T) {
	r := MustNewRelation("t",
		NewUint32("id", []uint32{30, 10, 20}),
		NewUint32("a", []uint32{3, 1, 2}), // a = id/10: monotone in id
		NewUint32("b", []uint32{1, 3, 2}), // not monotone in id
	)
	r.DeclareCorr("id", "a")
	if len(r.Corrs()) != 1 || r.Corrs()[0] != [2]string{"id", "a"} {
		t.Fatalf("Corrs = %v", r.Corrs())
	}
	if err := r.VerifyCorr("id", "a"); err != nil {
		t.Fatalf("valid correlation rejected: %v", err)
	}
	if err := r.VerifyCorr("id", "b"); err == nil {
		t.Fatal("invalid correlation accepted")
	}
	if err := r.VerifyCorr("missing", "a"); err == nil {
		t.Fatal("missing key column accepted")
	}
	if err := r.VerifyCorr("id", "missing"); err == nil {
		t.Fatal("missing dep column accepted")
	}
}

func TestDeclareCorrPanicsOnMissingColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DeclareCorr on missing column did not panic")
		}
	}()
	MustNewRelation("t", NewUint32("id", nil)).DeclareCorr("id", "nope")
}

func TestNewStringCodes(t *testing.T) {
	d := NewDict()
	a := d.Intern("x")
	b := d.Intern("y")
	c := NewStringCodes("s", []uint32{b, a, b}, d)
	if c.ValueAt(0).S != "y" || c.ValueAt(1).S != "x" {
		t.Fatal("codes column decodes wrongly")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range code accepted")
		}
	}()
	NewStringCodes("s", []uint32{99}, d)
}

func TestKeysAllKinds(t *testing.T) {
	u32 := NewUint32("a", []uint32{2, 1})
	if k := u32.Keys(); k[0] != 2 || k[1] != 1 {
		t.Fatal("uint32 keys wrong")
	}
	u64 := NewUint64("b", []uint64{5, 6})
	if k := u64.Keys(); k[0] != 5 {
		t.Fatal("uint64 keys wrong")
	}
	s := NewString("c", []string{"p", "q", "p"})
	if k := s.Keys(); k[0] != k[2] || k[0] == k[1] {
		t.Fatal("string keys wrong")
	}
	if u64.KeyAt(1) != 6 || s.KeyAt(1) != s.Keys()[1] {
		t.Fatal("KeyAt inconsistent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Keys on float column accepted")
		}
	}()
	NewFloat64("f", []float64{1}).Keys()
}

func TestComputeStatsAllKinds(t *testing.T) {
	u64 := NewUint64("a", []uint64{3, 1, 2})
	st := u64.Stats()
	if st.Sorted || st.Distinct != 3 || !st.Dense {
		t.Fatalf("uint64 stats wrong: %+v", st)
	}
	i64 := NewInt64("b", []int64{-1, 0, 1})
	st = i64.Stats()
	if !st.Sorted || st.Distinct != 3 || !st.Dense {
		t.Fatalf("int64 stats wrong: %+v", st)
	}
	f64 := NewFloat64("c", []float64{1.5, 1.5, 0.5})
	st = f64.Stats()
	if st.Sorted || st.Distinct != 2 || st.Rows != 3 {
		t.Fatalf("float stats wrong: %+v", st)
	}
	sorted := NewFloat64("d", []float64{0.5, 1.5})
	if !sorted.Stats().Sorted {
		t.Fatal("sorted float column not detected")
	}
}

func TestGatherAllKinds(t *testing.T) {
	idx := []int32{1, 0}
	if g := NewUint64("a", []uint64{5, 6}).Gather(nil, idx); g.Uint64s()[0] != 6 {
		t.Fatal("uint64 gather wrong")
	}
	if g := NewInt64("b", []int64{-5, 6}).Gather(nil, idx); g.Int64s()[0] != 6 {
		t.Fatal("int64 gather wrong")
	}
	if g := NewFloat64("c", []float64{0.5, 1.5}).Gather(nil, idx); g.Float64s()[0] != 1.5 {
		t.Fatal("float gather wrong")
	}
}

func TestSliceAllKinds(t *testing.T) {
	if s := NewUint64("a", []uint64{1, 2, 3}).Slice(1, 3); s.Len() != 2 || s.Uint64s()[0] != 2 {
		t.Fatal("uint64 slice wrong")
	}
	if s := NewInt64("b", []int64{1, 2, 3}).Slice(0, 1); s.Int64s()[0] != 1 {
		t.Fatal("int64 slice wrong")
	}
	if s := NewFloat64("c", []float64{1, 2}).Slice(1, 2); s.Float64s()[0] != 2 {
		t.Fatal("float slice wrong")
	}
	if s := NewString("d", []string{"a", "b"}).Slice(1, 2); s.ValueAt(0).S != "b" {
		t.Fatal("string slice wrong")
	}
}

func TestColumnEqualAllKinds(t *testing.T) {
	if !NewUint64("a", []uint64{1}).Equal(NewUint64("a", []uint64{1})) {
		t.Fatal("uint64 equal wrong")
	}
	if NewUint64("a", []uint64{1}).Equal(NewUint64("a", []uint64{2})) {
		t.Fatal("uint64 inequality missed")
	}
	if !NewFloat64("a", []float64{1.5}).Equal(NewFloat64("a", []float64{1.5})) {
		t.Fatal("float equal wrong")
	}
	if NewFloat64("a", []float64{1.5}).Equal(NewFloat64("a", []float64{2.5})) {
		t.Fatal("float inequality missed")
	}
	if NewInt64("a", []int64{1}).Equal(NewInt64("a", []int64{2})) {
		t.Fatal("int64 inequality missed")
	}
	if NewUint32("a", []uint32{1}).Equal(NewInt64("a", []int64{1})) {
		t.Fatal("cross-kind equality accepted")
	}
	// String equality compares decoded strings across dictionaries.
	x := NewString("s", []string{"aa", "bb"})
	y := NewString("s", []string{"aa", "bb"})
	z := NewString("s", []string{"aa", "cc"})
	if !x.Equal(y) || x.Equal(z) {
		t.Fatal("string equality wrong")
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := map[string]Value{
		"7":   {Kind: KindUint32, U: 7},
		"-3":  {Kind: KindInt64, U: ^uint64(2)}, // two's complement of -3
		"1.5": {Kind: KindFloat64, F: 1.5},
		"abc": {Kind: KindString, S: "abc"},
		"9":   {Kind: KindUint64, U: 9},
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Fatalf("Value %+v renders %q, want %q", v, got, want)
		}
	}
	if (Value{}).String() != "<invalid>" {
		t.Fatal("invalid value rendering wrong")
	}
}
