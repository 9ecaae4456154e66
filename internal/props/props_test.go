package props

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestDomainDense(t *testing.T) {
	d := Domain{Known: true, Dense: true, Lo: 5, Hi: 9, Distinct: 5}
	lo, hi, ok := d.DenseDomain()
	if !ok || lo != 5 || hi != 9 {
		t.Fatalf("DenseDomain = (%d,%d,%v)", lo, hi, ok)
	}
	if d.Width() != 5 {
		t.Fatalf("Width = %d", d.Width())
	}
	sparse := Domain{Known: true, Dense: false, Lo: 0, Hi: 100, Distinct: 3}
	if _, _, ok := sparse.DenseDomain(); ok {
		t.Fatal("sparse domain reported dense")
	}
	unknown := Domain{}
	if _, _, ok := unknown.DenseDomain(); ok || unknown.Width() != 0 {
		t.Fatal("unknown domain misbehaved")
	}
}

func TestSortedImpliesGrouped(t *testing.T) {
	s := NewSet().WithSortedBy("k")
	if !s.SortedOn("k") || !s.GroupedOn("k") {
		t.Fatal("sorted should imply grouped")
	}
	if s.SortedOn("other") || s.GroupedOn("other") {
		t.Fatal("properties leaked to other column")
	}
}

func TestGroupedNotSorted(t *testing.T) {
	s := NewSet().WithGroupedBy("k")
	if s.SortedOn("k") {
		t.Fatal("grouped must not imply sorted")
	}
	if !s.GroupedOn("k") {
		t.Fatal("grouped lost")
	}
}

func TestSortedOnIndependentColumns(t *testing.T) {
	s := NewSet().WithSortedBy("a", "b")
	if !s.SortedOn("a") || !s.SortedOn("b") {
		t.Fatal("SortedBy lists individually sorted columns")
	}
	if s.SortedOn("c") {
		t.Fatal("unlisted column reported sorted")
	}
}

func TestDropOrderKeepsDomains(t *testing.T) {
	s := NewSet().WithSortedBy("k").WithDomain("k", Domain{Known: true, Dense: true, Lo: 0, Hi: 9, Distinct: 10})
	d := s.DropOrder()
	if d.SortedOn("k") || d.GroupedOn("k") {
		t.Fatal("DropOrder kept order")
	}
	if !d.DenseOn("k") {
		t.Fatal("DropOrder dropped the domain — density is not an order property")
	}
}

func TestProjectKeepsSurvivingOrder(t *testing.T) {
	s := NewSet().WithSortedBy("a", "b", "c")
	p := s.Project("a", "c")
	if !p.SortedOn("a") || !p.SortedOn("c") || p.SortedOn("b") {
		t.Fatalf("projected order = %v", p.SortedBy)
	}
}

func TestCorrelations(t *testing.T) {
	s := NewSet().WithCorr("ID", "A")
	if !s.CorrelatedWith("ID", "A") {
		t.Fatal("correlation lost")
	}
	if s.CorrelatedWith("A", "ID") {
		t.Fatal("correlation is directional")
	}
	if !s.CorrelatedWith("X", "X") {
		t.Fatal("self-correlation should hold trivially")
	}
	deps := s.Dependents("ID")
	if len(deps) != 1 || deps[0] != "A" {
		t.Fatalf("Dependents = %v", deps)
	}
	// Idempotent add.
	s2 := s.WithCorr("ID", "A")
	if len(s2.Corrs) != 1 {
		t.Fatal("duplicate correlation stored")
	}
	// Correlations survive DropOrder and Project (if both columns kept).
	d := s.DropOrder()
	if !d.CorrelatedWith("ID", "A") {
		t.Fatal("DropOrder removed correlation")
	}
	if s.Project("ID").CorrelatedWith("ID", "A") {
		t.Fatal("Project kept correlation with a dropped column")
	}
	if !s.Project("ID", "A").CorrelatedWith("ID", "A") {
		t.Fatal("Project dropped a surviving correlation")
	}
}

func TestAfterSortBy(t *testing.T) {
	s := NewSet().WithSortedBy("other").WithCorr("ID", "A").WithCorr("ID", "B").
		WithDomain("ID", Domain{Known: true, Dense: true, Lo: 0, Hi: 9, Distinct: 10})
	out := s.AfterSortBy("ID")
	if !out.SortedOn("ID") || !out.SortedOn("A") || !out.SortedOn("B") {
		t.Fatalf("AfterSortBy: %v", out.SortedBy)
	}
	if out.SortedOn("other") {
		t.Fatal("sorting by ID must invalidate other column's order")
	}
	if !out.DenseOn("ID") {
		t.Fatal("sorting dropped the domain")
	}
	if !out.CorrelatedWith("ID", "A") {
		t.Fatal("sorting dropped the correlation")
	}
}

func TestRenameCorr(t *testing.T) {
	s := NewSet().WithCorr("ID", "A")
	r := s.Rename("ID", "key")
	if !r.CorrelatedWith("key", "A") || r.CorrelatedWith("ID", "A") {
		t.Fatalf("rename on correlations wrong: %v", r.Corrs)
	}
}

func TestProjectFiltersDomainsAndGrouping(t *testing.T) {
	s := NewSet().WithGroupedBy("g").
		WithDomain("g", Domain{Known: true, Dense: true, Lo: 0, Hi: 1, Distinct: 2}).
		WithDomain("x", Domain{Known: true, Dense: false, Lo: 0, Hi: 5, Distinct: 3})
	p := s.Project("g")
	if !p.GroupedOn("g") || !p.DenseOn("g") {
		t.Fatal("kept column lost properties")
	}
	if p.Domain("x").Known {
		t.Fatal("dropped column kept domain")
	}
}

func TestRename(t *testing.T) {
	s := NewSet().WithSortedBy("a").WithGroupedBy("a").
		WithDomain("a", Domain{Known: true, Dense: true, Lo: 1, Hi: 2, Distinct: 2})
	// WithGroupedBy clears SortedBy, so rebuild with both via fields.
	s.SortedBy = []string{"a"}
	r := s.Rename("a", "z")
	if !r.SortedOn("z") || !r.GroupedOn("z") || !r.DenseOn("z") {
		t.Fatalf("rename lost properties: %+v", r)
	}
	if r.SortedOn("a") || r.Domain("a").Known {
		t.Fatal("rename kept old name")
	}
}

func TestSatisfies(t *testing.T) {
	s := NewSet().WithSortedBy("k").WithDomain("k", Domain{Known: true, Dense: true, Lo: 0, Hi: 4, Distinct: 5})
	cases := []struct {
		req  Requirement
		want bool
	}{
		{Requirement{ReqSorted, "k"}, true},
		{Requirement{ReqGrouped, "k"}, true},
		{Requirement{ReqDense, "k"}, true},
		{Requirement{ReqSorted, "x"}, false},
		{Requirement{ReqDense, "x"}, false},
	}
	for _, c := range cases {
		if got := s.Satisfies(c.req); got != c.want {
			t.Errorf("Satisfies(%s) = %v, want %v", c.req, got, c.want)
		}
	}
	if !s.SatisfiesAll([]Requirement{{ReqSorted, "k"}, {ReqDense, "k"}}) {
		t.Fatal("SatisfiesAll failed on satisfiable set")
	}
	if s.SatisfiesAll([]Requirement{{ReqSorted, "k"}, {ReqDense, "x"}}) {
		t.Fatal("SatisfiesAll passed on unsatisfiable set")
	}
}

func TestFingerprintEquality(t *testing.T) {
	a := NewSet().WithSortedBy("k").WithDomain("k", Domain{Known: true, Dense: true, Lo: 0, Hi: 9, Distinct: 10})
	b := NewSet().WithSortedBy("k").WithDomain("k", Domain{Known: true, Dense: true, Lo: 0, Hi: 9, Distinct: 10})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal sets produced different fingerprints")
	}
	c := b.WithDomain("k", Domain{Known: true, Dense: false, Lo: 0, Hi: 9, Distinct: 5})
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different sets produced equal fingerprints")
	}
	d := NewSet().WithGroupedBy("k")
	e := NewSet().WithSortedBy("k")
	if d.Fingerprint() == e.Fingerprint() {
		t.Fatal("grouped and sorted must fingerprint differently")
	}
}

func TestFingerprintCanonicalOrder(t *testing.T) {
	a := NewSet().
		WithDomain("x", Domain{Known: true, Lo: 1, Hi: 2, Distinct: 2}).
		WithDomain("y", Domain{Known: true, Lo: 3, Hi: 4, Distinct: 2})
	b := NewSet().
		WithDomain("y", Domain{Known: true, Lo: 3, Hi: 4, Distinct: 2}).
		WithDomain("x", Domain{Known: true, Lo: 1, Hi: 2, Distinct: 2})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on insertion order")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSet().WithDomain("k", Domain{Known: true})
	c := s.Clone()
	c.Cols["k"] = Domain{}
	c.SortedBy = append(c.SortedBy, "zzz")
	if !s.Domain("k").Known || len(s.SortedBy) != 0 {
		t.Fatal("clone shares state with original")
	}
}

func TestFromStats(t *testing.T) {
	d := FromStats(100, 5, 14, 10, true, true)
	if !d.Known || !d.Dense || d.Lo != 5 || d.Hi != 14 || d.Distinct != 10 {
		t.Fatalf("FromStats wrong: %+v", d)
	}
	if FromStats(0, 0, 0, 0, true, true).Known {
		t.Fatal("empty input should give unknown domain")
	}
	if FromStats(100, 0, 9, 10, true, false).Known {
		t.Fatal("inexact stats should give unknown domain")
	}
}

func TestFingerprintIsFunctionOfContent(t *testing.T) {
	// Property: cloning never changes the fingerprint.
	f := func(sorted, grouped bool, lo, hi uint64, distinct int64) bool {
		if hi < lo {
			lo, hi = hi, lo
		}
		s := NewSet()
		if sorted {
			s = s.WithSortedBy("k")
		} else if grouped {
			s = s.WithGroupedBy("k")
		}
		s = s.WithDomain("k", Domain{Known: true, Dense: distinct >= 0 && uint64(distinct) == hi-lo+1, Lo: lo, Hi: hi, Distinct: distinct})
		return s.Fingerprint() == s.Clone().Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnumStrings(t *testing.T) {
	tests := []struct {
		enum fmt.Stringer
		want string
	}{
		{ColumnLayout, "columnar"},
		{RowLayout, "row"},
		{PAXLayout, "pax"},
		{Layout(99), "unknown"},
		{NoCompression, "none"},
		{DictCompression, "dict"},
		{RLECompression, "rle"},
		{BitPackCompression, "bitpack"},
		{FoRCompression, "for"},
		{Compression(99), "none"},
		{ReqSorted, "sorted"},
		{ReqGrouped, "grouped"},
		{ReqDense, "dense"},
		{Requirement{ReqDense, "col"}, "dense(col)"},
	}
	for _, tt := range tests {
		if got := tt.enum.String(); got != tt.want {
			t.Errorf("%T(%#v).String() = %q, want %q", tt.enum, tt.enum, got, tt.want)
		}
	}
}

func TestMergeCorrs(t *testing.T) {
	a := []Corr{{Key: "ID", Dep: "A"}, {Key: "X", Dep: "Y"}}
	b := []Corr{{Key: "K", Dep: "B"}, {Key: "X", Dep: "Y"}}
	want := []Corr{{Key: "ID", Dep: "A"}, {Key: "K", Dep: "B"}, {Key: "X", Dep: "Y"}}
	for _, got := range [][]Corr{MergeCorrs(a, b), MergeCorrs(b, a)} {
		if len(got) != len(want) {
			t.Fatalf("merged %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("merged %v, want %v", got, want)
			}
		}
	}
	if a[1] != (Corr{Key: "X", Dep: "Y"}) || b[0] != (Corr{Key: "K", Dep: "B"}) {
		t.Fatal("MergeCorrs wrote into an input")
	}
	// One side empty: the other's list as it is (sets are immutable).
	if got := MergeCorrs(a, nil); &got[0] != &a[0] {
		t.Fatal("MergeCorrs copied the only list")
	}
	if got := MergeCorrs(nil, b); &got[0] != &b[0] {
		t.Fatal("MergeCorrs copied the only list")
	}
}
