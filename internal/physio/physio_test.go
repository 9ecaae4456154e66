package physio

import (
	"strings"
	"testing"

	"dqo/internal/physical"
)

func TestLevelNames(t *testing.T) {
	want := map[Level]string{
		LevelCell: "cell", LevelOrganelle: "organelle", LevelMacro: "macro-molecule",
		LevelMolecule: "molecule", LevelAtom: "atom",
	}
	for l, w := range want {
		if l.String() != w {
			t.Fatalf("level %d = %q, want %q", l, l, w)
		}
	}
}

func TestGranuleSizeAndPhysicality(t *testing.T) {
	logical := New("Γ", LevelCell, "")
	if logical.Size() != 1 || logical.Physicality() != 0 {
		t.Fatalf("logical granule: size=%d phys=%g", logical.Size(), logical.Physicality())
	}
	deep := New("Γ", LevelOrganelle, "",
		New("a", LevelMacro, ""),
		New("b", LevelMolecule, "", New("c", LevelMolecule, "")),
	)
	if deep.Size() != 4 {
		t.Fatalf("size = %d", deep.Size())
	}
	if got := deep.Physicality(); got != 0.5 {
		t.Fatalf("physicality = %g, want 0.5", got)
	}
}

func TestRenderAndDOT(t *testing.T) {
	g := GroupTree(physical.HG, physical.GroupOptions{}, "k")
	r := g.Render()
	for _, want := range []string{"Γ", "partitionBy", "scheme", "chained", "murmur3fin", "«molecule»"} {
		if !strings.Contains(r, want) {
			t.Fatalf("Render missing %q:\n%s", want, r)
		}
	}
	d := g.DOT()
	if !strings.HasPrefix(d, "digraph") || !strings.Contains(d, "->") {
		t.Fatalf("DOT malformed:\n%s", d)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := GroupTree(physical.SOG, physical.GroupOptions{}, "k")
	c := g.Clone()
	c.Children[0].Detail = "mutated"
	if g.Children[0].Detail == "mutated" {
		t.Fatal("clone shares nodes")
	}
	if c.Size() != g.Size() {
		t.Fatal("clone changed size")
	}
}

func TestGroupChoicesShallow(t *testing.T) {
	cs := GroupChoices(Shallow, 1)
	if len(cs) != 5 {
		t.Fatalf("shallow grouping choices = %d, want 5 (one per family)", len(cs))
	}
	kinds := map[physical.GroupKind]bool{}
	for _, c := range cs {
		kinds[c.Kind] = true
		if c.Tree("k") == nil {
			t.Fatalf("%s: missing granule tree", c.Label())
		}
	}
	for _, k := range physical.GroupKinds() {
		if !kinds[k] {
			t.Fatalf("shallow enumeration missing %s", k)
		}
	}
}

func TestGroupChoicesDeepExpandsMolecules(t *testing.T) {
	cs := GroupChoices(Deep, 1)
	// 12 HG variants + SPHG + OG + 3 SOG + BSG, all serial at dop=1.
	if want := 12 + 1 + 1 + 3 + 1; len(cs) != want {
		t.Fatalf("deep grouping choices = %d, want %d", len(cs), want)
	}
	labels := map[string]bool{}
	for _, c := range cs {
		if labels[c.Label()] {
			t.Fatalf("duplicate choice %s", c.Label())
		}
		labels[c.Label()] = true
	}
	if !labels["HG(robinhood,fibonacci)"] {
		t.Fatal("deep enumeration missing a hash-table molecule combination")
	}
	if !labels["SOG(comparison)"] {
		t.Fatal("deep enumeration missing a sort molecule")
	}
}

func TestJoinChoicesCounts(t *testing.T) {
	if n := len(JoinChoices(Shallow, 1)); n != 5 {
		t.Fatalf("shallow join choices = %d, want 5", n)
	}
	if n := len(JoinChoices(Deep, 1)); n != 4+1+1+3+3 {
		t.Fatalf("deep join choices = %d, want 12", n)
	}
}

// dop > 1 appends parallel variants of the DOP-invariant kernels after their
// serial twins: SPHG + 4 chained HG + radix SOG for grouping, SPHJ + 4 HJ +
// radix SOJ for joins. Shallow enumeration never parallelises.
func TestParallelChoicesAppendAfterSerial(t *testing.T) {
	gs := GroupChoices(Deep, 4)
	if want := (12 + 1 + 1 + 3 + 1) + 6; len(gs) != want {
		t.Fatalf("deep grouping choices at dop=4 = %d, want %d", len(gs), want)
	}
	labels := map[string]int{}
	for i, c := range gs {
		labels[c.Label()] = i
	}
	for serial, par := range map[string]string{
		"SPHG":                      "SPHG(parallel=4)",
		"HG(chained,murmur3fin)":    "HG(chained,murmur3fin,parallel=4)",
		"SOG(radix)":                "SOG(radix,parallel=4)",
		"HG(chained,multiplyshift)": "HG(chained,multiplyshift,parallel=4)",
	} {
		si, ok := labels[serial]
		if !ok {
			t.Fatalf("missing serial choice %s", serial)
		}
		pi, ok := labels[par]
		if !ok {
			t.Fatalf("missing parallel choice %s", par)
		}
		if pi < si {
			t.Fatalf("%s enumerated before %s: ties must resolve serial", par, serial)
		}
	}
	for _, c := range gs {
		if c.Opt.Parallel > 1 && !strings.Contains(c.Tree("k").Render(), "parallel") {
			t.Fatalf("%s: granule tree does not mention parallelism:\n%s", c.Label(), c.Tree("k").Render())
		}
	}
	js := JoinChoices(Deep, 4)
	if want := (4 + 1 + 1 + 3 + 3) + 6; len(js) != want {
		t.Fatalf("deep join choices at dop=4 = %d, want %d", len(js), want)
	}
	jl := map[string]bool{}
	for _, c := range js {
		jl[c.Label()] = true
	}
	for _, want := range []string{"HJ(murmur3fin,parallel=4)", "SOJ(radix,parallel=4)", "SPHJ(parallel=4)"} {
		if !jl[want] {
			t.Fatalf("missing parallel join choice %s", want)
		}
	}
	if n := len(GroupChoices(Shallow, 4)); n != 5 {
		t.Fatalf("shallow grouping at dop=4 = %d choices, want 5 (no parallel variants)", n)
	}
	if n := len(JoinChoices(Shallow, 4)); n != 5 {
		t.Fatalf("shallow joins at dop=4 = %d choices, want 5 (no parallel variants)", n)
	}
}

// TestChoiceListsAreShared checks that the serial lists are built once and
// that a caller appending to one cannot reach its neighbour's view of it.
func TestChoiceListsAreShared(t *testing.T) {
	a, b := JoinChoices(Deep, 1), JoinChoices(Deep, 0)
	if &a[0] != &b[0] {
		t.Fatal("the deep serial join list is rebuilt per call")
	}
	if g, h := GroupChoices(Shallow, 4), GroupChoices(Shallow, 1); &g[0] != &h[0] {
		t.Fatal("the shallow grouping list is rebuilt per call")
	}
	if grown := append(a, JoinChoice{}); &grown[0] == &a[0] {
		t.Fatal("appending to a shared list writes into it")
	}
}

func TestDeepTreesAreMorePhysicalThanLogical(t *testing.T) {
	for _, c := range GroupChoices(Deep, 1) {
		if c.Tree("k").Physicality() <= 0 {
			t.Fatalf("%s: deep tree has zero physicality", c.Label())
		}
	}
	for _, c := range JoinChoices(Deep, 1) {
		if c.Tree("a", "b").Physicality() <= 0 {
			t.Fatalf("%s: deep tree has zero physicality", c.Label())
		}
	}
}

func TestUnnestStepsIncreasePhysicality(t *testing.T) {
	for _, c := range GroupChoices(Shallow, 1) {
		steps := UnnestSteps(c, "k")
		if len(steps) != 4 {
			t.Fatalf("%s: %d steps, want 4", c.Label(), len(steps))
		}
		prev := -1.0
		for i, s := range steps {
			p := s.Physicality()
			if p < prev {
				t.Fatalf("%s: physicality decreased at step %d (%g -> %g)", c.Label(), i, prev, p)
			}
			prev = p
		}
		if steps[0].Physicality() != 0 {
			t.Fatalf("%s: first step should be purely logical", c.Label())
		}
		if steps[3].Physicality() <= steps[0].Physicality() {
			t.Fatalf("%s: unnesting did not increase physicality", c.Label())
		}
	}
}

func TestLabels(t *testing.T) {
	cs := GroupChoices(Shallow, 1)
	var hg GroupChoice
	for _, c := range cs {
		if c.Kind == physical.HG {
			hg = c
		}
	}
	if hg.Label() != "HG(chained,murmur3fin)" {
		t.Fatalf("HG label = %q", hg.Label())
	}
	js := JoinChoices(Shallow, 1)
	for _, j := range js {
		if j.Kind == physical.HJ && j.Label() != "HJ(murmur3fin)" {
			t.Fatalf("HJ label = %q", j.Label())
		}
		if j.Kind == physical.OJ && j.Label() != "OJ" {
			t.Fatalf("OJ label = %q", j.Label())
		}
	}
	if Shallow.String() != "shallow" || Deep.String() != "deep" {
		t.Fatal("depth names wrong")
	}
}

func TestUnnestJoinSteps(t *testing.T) {
	for _, c := range JoinChoices(Shallow, 1) {
		steps := UnnestJoinSteps(c, "a", "b", false)
		if len(steps) != 4 {
			t.Fatalf("%s: %d steps", c.Label(), len(steps))
		}
		prev := -1.0
		for i, s := range steps {
			p := s.Physicality()
			if p < prev {
				t.Fatalf("%s: physicality decreased at step %d", c.Label(), i)
			}
			prev = p
		}
		if steps[0].Physicality() != 0 || steps[3].Physicality() <= 0 {
			t.Fatalf("%s: endpoints wrong", c.Label())
		}
	}
}
