package props

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"dqo/internal/storage"
)

// testNames are the columns of testTab, in name (and so ordinal) order:
// every name the package's tests use.
var testNames = []string{"A", "B", "D.G", "D.W", "ID", "K", "R.A", "R.ID", "S.M", "S.R_ID", "X", "Y", "a", "b", "c", "g", "k", "other", "x", "zzz"}

// testTab numbers testNames with no base domain, so every domain a test set
// knows is an override, and every correlation among the keyPool names and
// the few the tests declare.
var testTab = func() *Table {
	t := &Table{dense: true}
	for _, n := range testNames {
		t.cols = append(t.cols, Column{Name: n})
	}
	pool := []string{"R.ID", "R.A", "S.R_ID", "S.M", "D.G", "D.W"}
	pairs := [][2]string{{"ID", "A"}, {"ID", "B"}, {"X", "Y"}, {"K", "B"}}
	for _, k := range pool {
		for _, d := range pool {
			pairs = append(pairs, [2]string{k, d})
		}
	}
	for _, p := range pairs {
		t.corrs = append(t.corrs, Corr{col(p[0]), col(p[1])})
	}
	slices.SortFunc(t.corrs, func(a, b Corr) int { return int(a.Key)<<8 + int(a.Dep) - int(b.Key)<<8 - int(b.Dep) })
	return t
}()

// col returns the ordinal of a test name.
func col(name string) Col {
	i := slices.Index(testNames, name)
	if i < 0 {
		panic("no test column " + name)
	}
	return Col(i)
}

func cols(names ...string) Cols {
	var cs Cols
	for _, n := range names {
		cs |= 1 << col(n)
	}
	return cs
}

// newSet is an empty set over testTab; the with* helpers build on it the way
// a planner derives sets, copying the overrides they change.
func newSet() Set { return Set{tab: testTab} }

func (s Set) withSortedBy(names ...string) Set {
	s.Sorted, s.Grouped = cols(names...), 0
	return s
}

func (s Set) withGroupedBy(names ...string) Set {
	s.Sorted, s.Grouped = 0, cols(names...)
	return s
}

func (s Set) withCorr(key, dep string) Set {
	i := slices.Index(testTab.corrs, Corr{col(key), col(dep)})
	s.corrs |= 1 << i
	return s
}

func (s Set) withDomain(name string, d Domain) Set {
	c := col(name)
	over := &overrides{}
	(s.overCols | 1<<c).each(func(o Col) {
		switch {
		case o == c && d.Known:
			over.cols |= 1 << o
			over.doms = append(over.doms, d)
		case o != c:
			over.cols |= 1 << o
			over.doms = append(over.doms, s.Domain(o))
		}
	})
	s.over, s.overCols = over, over.cols
	s.known &^= 1 << c
	if d.Known {
		s.known |= 1 << c
	}
	return s
}

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
	s := newSet().withSortedBy("k")
	if !s.SortedOn(col("k")) || !s.GroupedOn(col("k")) {
		t.Fatal("sorted should imply grouped")
	}
	if s.SortedOn(col("other")) || s.GroupedOn(col("other")) {
		t.Fatal("properties leaked to other column")
	}
}

func TestGroupedNotSorted(t *testing.T) {
	s := newSet().withGroupedBy("k")
	if s.SortedOn(col("k")) {
		t.Fatal("grouped must not imply sorted")
	}
	if !s.GroupedOn(col("k")) {
		t.Fatal("grouped lost")
	}
}

func TestSortedOnIndependentColumns(t *testing.T) {
	s := newSet().withSortedBy("a", "b")
	if !s.SortedOn(col("a")) || !s.SortedOn(col("b")) {
		t.Fatal("Sorted holds individually sorted columns")
	}
	if s.SortedOn(col("c")) {
		t.Fatal("unlisted column reported sorted")
	}
}

func TestDropOrderKeepsDomains(t *testing.T) {
	s := newSet().withSortedBy("k").withDomain("k", Domain{Known: true, Dense: true, Lo: 0, Hi: 9, Distinct: 10})
	d := s.DropOrder()
	if d.SortedOn(col("k")) || d.GroupedOn(col("k")) {
		t.Fatal("DropOrder kept order")
	}
	if !d.DenseOn(col("k")) {
		t.Fatal("DropOrder dropped the domain — density is not an order property")
	}
}

func TestProjectKeepsSurvivingOrder(t *testing.T) {
	s := newSet().withSortedBy("a", "b", "c")
	p := s.Project(cols("a", "c"))
	if !p.SortedOn(col("a")) || !p.SortedOn(col("c")) || p.SortedOn(col("b")) {
		t.Fatalf("projected order = %s", p)
	}
}

func TestCorrelations(t *testing.T) {
	s := newSet().withCorr("ID", "A")
	if !s.Dependents(col("ID")).Has(col("A")) {
		t.Fatal("correlation lost")
	}
	if s.Dependents(col("A")).Has(col("ID")) {
		t.Fatal("correlation is directional")
	}
	if deps := s.Dependents(col("ID")); deps != cols("A") {
		t.Fatalf("Dependents = %b", deps)
	}
	// Idempotent add.
	if s.withCorr("ID", "A") != s {
		t.Fatal("duplicate correlation stored")
	}
	// Correlations survive DropOrder and Project (if both columns kept).
	d := s.DropOrder()
	if !d.Dependents(col("ID")).Has(col("A")) {
		t.Fatal("DropOrder removed correlation")
	}
	if s.Project(cols("ID")).Dependents(col("ID")) != 0 {
		t.Fatal("Project kept correlation with a dropped column")
	}
	if !s.Project(cols("ID", "A")).Dependents(col("ID")).Has(col("A")) {
		t.Fatal("Project dropped a surviving correlation")
	}
}

func TestAfterSortBy(t *testing.T) {
	s := newSet().withSortedBy("other").withCorr("ID", "A").withCorr("ID", "B").
		withDomain("ID", Domain{Known: true, Dense: true, Lo: 0, Hi: 9, Distinct: 10})
	out := s.AfterSortBy(col("ID"))
	if !out.SortedOn(col("ID")) || !out.SortedOn(col("A")) || !out.SortedOn(col("B")) {
		t.Fatalf("AfterSortBy: %s", out)
	}
	if out.SortedOn(col("other")) {
		t.Fatal("sorting by ID must invalidate other column's order")
	}
	if !out.DenseOn(col("ID")) {
		t.Fatal("sorting dropped the domain")
	}
	if !out.Dependents(col("ID")).Has(col("A")) {
		t.Fatal("sorting dropped the correlation")
	}
}

func TestProjectFiltersDomainsAndGrouping(t *testing.T) {
	s := newSet().withGroupedBy("g").
		withDomain("g", Domain{Known: true, Dense: true, Lo: 0, Hi: 1, Distinct: 2}).
		withDomain("x", Domain{Known: true, Dense: false, Lo: 0, Hi: 5, Distinct: 3})
	p := s.Project(cols("g"))
	if !p.GroupedOn(col("g")) || !p.DenseOn(col("g")) {
		t.Fatal("kept column lost properties")
	}
	if p.Domain(col("x")).Known {
		t.Fatal("dropped column kept domain")
	}
}

func TestSatisfies(t *testing.T) {
	s := newSet().withSortedBy("k").withDomain("k", Domain{Known: true, Dense: true, Lo: 0, Hi: 4, Distinct: 5})
	cases := []struct {
		req  Requirement
		want bool
	}{
		{Requirement{ReqSorted, "k"}, true},
		{Requirement{ReqGrouped, "k"}, true},
		{Requirement{ReqDense, "k"}, true},
		{Requirement{ReqSorted, "x"}, false},
		{Requirement{ReqDense, "x"}, false},
		{Requirement{ReqSorted, "not in the table"}, false},
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
	a := newSet().withSortedBy("k").withDomain("k", Domain{Known: true, Dense: true, Lo: 0, Hi: 9, Distinct: 10})
	b := newSet().withSortedBy("k").withDomain("k", Domain{Known: true, Dense: true, Lo: 0, Hi: 9, Distinct: 10})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal sets produced different fingerprints")
	}
	c := b.withDomain("k", Domain{Known: true, Dense: false, Lo: 0, Hi: 9, Distinct: 5})
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different sets produced equal fingerprints")
	}
	d := newSet().withGroupedBy("k")
	e := newSet().withSortedBy("k")
	if d.Fingerprint() == e.Fingerprint() {
		t.Fatal("grouped and sorted must fingerprint differently")
	}
}

func TestFingerprintCanonicalOrder(t *testing.T) {
	a := newSet().
		withDomain("x", Domain{Known: true, Lo: 1, Hi: 2, Distinct: 2}).
		withDomain("Y", Domain{Known: true, Lo: 3, Hi: 4, Distinct: 2})
	b := newSet().
		withDomain("Y", Domain{Known: true, Lo: 3, Hi: 4, Distinct: 2}).
		withDomain("x", Domain{Known: true, Lo: 1, Hi: 2, Distinct: 2})
	if a.Fingerprint() != b.Fingerprint() || a.Key() != b.Key() {
		t.Fatal("fingerprint depends on insertion order")
	}
	if want := "s:;g:;r:;d:Y=false,3,4,2;x=false,1,2,2;"; a.Fingerprint() != want {
		t.Fatalf("fingerprint %s, want %s", a.Fingerprint(), want)
	}
}

// TestCloneIndependence: a set is a value, so a copy changed in every
// component leaves the original as it was — the overrides it shares are
// copied by whichever derivation changes them.
func TestCloneIndependence(t *testing.T) {
	s := newSet().withDomain("k", Domain{Known: true})
	c := s.withDomain("k", Domain{}).withSortedBy("zzz").withCorr("ID", "A")
	if !s.Domain(col("k")).Known || s.Sorted != 0 || s.Dependents(col("ID")) != 0 {
		t.Fatal("copy shares state with original")
	}
	if c.Domain(col("k")).Known || !c.SortedOn(col("zzz")) {
		t.Fatal("copy lost its changes")
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
	// Property: the same knowledge reached by another derivation
	// fingerprints and keys alike.
	f := func(sorted, grouped bool, lo, hi uint64, distinct int64) bool {
		if hi < lo {
			lo, hi = hi, lo
		}
		d := Domain{Known: true, Dense: distinct >= 0 && uint64(distinct) == hi-lo+1, Lo: lo, Hi: hi, Distinct: distinct}
		s := newSet()
		if sorted {
			s = s.withSortedBy("k")
		} else if grouped {
			s = s.withGroupedBy("k")
		}
		s = s.withDomain("k", d)
		other := newSet().withDomain("x", d).withDomain("k", d).Project(cols("k"))
		other.Sorted, other.Grouped = s.Sorted, s.Grouped
		return s.Fingerprint() == other.Fingerprint() && s.Key() == other.Key()
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
		{ReqSorted, "sorted"},
		{ReqGrouped, "grouped"},
		{ReqDense, "dense"},
		{ReqKind(99), "unknown"},
		{Requirement{ReqDense, "col"}, "dense(col)"},
		{newSet().withSortedBy("ID").withGroupedBy("X").withCorr("ID", "A").withDomain("ID", Domain{Known: true, Dense: true, Hi: 1, Distinct: 2}), "grouped{X} dense{ID} corr{A~ID}"},
	}
	for _, tt := range tests {
		if got := tt.enum.String(); got != tt.want {
			t.Errorf("%T(%#v).String() = %q, want %q", tt.enum, tt.enum, got, tt.want)
		}
	}
}

// TestMergeCorrs: an output carrying both inputs' columns (Union) holds both
// inputs' correlations, in one canonical order whichever input comes first,
// and neither input changes.
func TestMergeCorrs(t *testing.T) {
	a := newSet().withCorr("ID", "A").withCorr("X", "Y")
	b := newSet().withCorr("K", "B").withCorr("X", "Y")
	want := "corr{A~ID} corr{B~K} corr{Y~X}"
	for _, got := range []Set{a.Union(b), b.Union(a)} {
		if got.String() != want {
			t.Fatalf("merged %s, want %s", got, want)
		}
	}
	if a.String() != "corr{A~ID} corr{Y~X}" || b.String() != "corr{B~K} corr{Y~X}" {
		t.Fatal("Union wrote into an input")
	}
}

// TestTableNumbersAQuery: a table built from relations numbers their
// columns in name order, keys first when it runs out of ordinals, gives a
// name the first relation's kind and domain, and a scan of a later relation
// that holds the name otherwise overrides that domain for itself alone.
func TestTableNumbersAQuery(t *testing.T) {
	r := storage.MustNewRelation("R", storage.NewUint32("ID", []uint32{0, 1, 2, 3}), storage.NewUint32("A", []uint32{0, 0, 1, 1}))
	r.DeclareCorr("ID", "A")
	s := storage.MustNewRelation("S", storage.NewUint32("ID", []uint32{7, 5, 9}), storage.NewInt64("M", []int64{-1, 4, 2}))
	tab := NewTable([]*storage.Relation{r, s}, []string{"ID", "ID_r"}, true)
	var names []string
	for _, c := range tab.cols {
		names = append(names, c.Name)
	}
	if want := []string{"A", "ID", "ID_r", "M"}; !slices.Equal(names, want) {
		t.Fatalf("numbered %v, want %v", names, want)
	}
	id, _ := tab.Col("ID")
	rs, ss := tab.Scan(r), tab.Scan(s)
	if !rs.SortedOn(id) || !rs.DenseOn(id) || ss.SortedOn(id) || ss.DenseOn(id) || ss.Domain(id).Lo != 5 {
		t.Fatalf("scan sets R %s, S %s (S.ID %+v)", rs.Fingerprint(), ss.Fingerprint(), ss.Domain(id))
	}
	if tab.Column(id).Dom != rs.Domain(id) || rs.overCols != 0 || ss.overCols != ColsOf(id) {
		t.Fatalf("base domain %+v; R overrides %b, S overrides %b", tab.Column(id).Dom, rs.overCols, ss.overCols)
	}
	if u := rs.Union(ss); u.Domain(id) != rs.Domain(id) || ss.Union(rs).Domain(id) != ss.Domain(id) {
		t.Fatal("a union must take the first input's domain of a shared name")
	}
	if m, _ := tab.Col("M"); tab.Column(m).Kind != storage.KindInt64 || !rs.Union(ss).Domain(m).Known {
		t.Fatal("M lost its kind or domain")
	}
	if a, _ := tab.Col("A"); !rs.Dependents(id).Has(a) || ss.Dependents(id).Has(a) {
		t.Fatal("the correlation belongs to R's scan alone")
	}
	// Two overrides, held in the reverse of ordinal order.
	u := storage.MustNewRelation("U", storage.NewInt64("M", []int64{40, 50}), storage.NewUint32("ID", []uint32{9, 8}))
	tab2 := NewTable([]*storage.Relation{r, s, u}, nil, true)
	m2, _ := tab2.Col("M")
	id2, _ := tab2.Col("ID")
	if us := tab2.Scan(u); us.overCols != ColsOf(id2, m2) || us.Domain(id2).Lo != 8 || us.Domain(m2).Distinct != 2 {
		t.Fatalf("U's overrides %b: ID %+v, M %+v", us.overCols, us.Domain(id2), us.Domain(m2))
	}
	if shallow := NewTable([]*storage.Relation{r}, nil, false); shallow.Scan(r).DenseOn(0) {
		t.Fatal("a shallow table must hide density")
	}
	wide := make([]*storage.Column, MaxCols+2)
	for i := range wide {
		wide[i] = storage.NewUint32(fmt.Sprintf("c%02d", i), []uint32{1})
	}
	tab = NewTable([]*storage.Relation{storage.MustNewRelation("W", wide...)}, []string{"c65"}, true)
	if _, ok := tab.Col("c65"); !ok || len(tab.cols) != MaxCols {
		t.Fatal("a key must keep its ordinal when the columns outnumber them")
	}
}
