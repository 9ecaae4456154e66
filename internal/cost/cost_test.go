package cost

import (
	"math"
	"slices"
	"testing"

	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/physio"
	"dqo/internal/sortx"
)

func groupChoice(k physical.GroupKind, opt physical.GroupOptions) physio.GroupChoice {
	return physio.GroupChoice{Kind: k, Opt: opt}
}

func joinChoice(k physical.JoinKind, opt physical.JoinOptions) physio.JoinChoice {
	return physio.JoinChoice{Kind: k, Opt: opt}
}

// TestPaperModelTable2 pins the model to the exact Table 2 formulas using
// the paper's own cardinalities: |R| = 20,000, |S| = 90,000, G = 20,000.
func TestPaperModelTable2(t *testing.T) {
	m := Paper{}
	const r, s, g = 20000, 90000, 20000
	l2r := math.Log2(r)
	l2s := math.Log2(s)
	l2g := math.Log2(g)

	groupCases := []struct {
		kind physical.GroupKind
		want float64
	}{
		{physical.HG, 4 * r},
		{physical.OG, r},
		{physical.SOG, r*l2r + r},
		{physical.SPHG, r},
		{physical.BSG, r * l2g},
	}
	for _, c := range groupCases {
		got := m.Group(groupChoice(c.kind, physical.GroupOptions{}), r, g)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Group %s = %g, want %g", c.kind, got, c.want)
		}
	}

	joinCases := []struct {
		kind physical.JoinKind
		want float64
	}{
		{physical.HJ, 4 * (r + s)},
		{physical.OJ, r + s},
		{physical.SOJ, r*l2r + s*l2s + r + s},
		{physical.SPHJ, r + s},
		{physical.BSJ, (r + s) * l2g},
	}
	for _, c := range joinCases {
		got := m.Join(joinChoice(c.kind, physical.JoinOptions{}), r, s, g)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Join %s = %g, want %g", c.kind, got, c.want)
		}
	}
}

func TestPaperSortEnforcerConsistency(t *testing.T) {
	// enforced sort + OG must price exactly like SOG (Table 2 is internally
	// consistent: SOG = sort + OG).
	m := Paper{}
	const r, g = 20000, 100
	sortPlusOG := m.SortBy(r, sortx.Radix) + m.Group(groupChoice(physical.OG, physical.GroupOptions{}), r, g)
	sog := m.Group(groupChoice(physical.SOG, physical.GroupOptions{}), r, g)
	if math.Abs(sortPlusOG-sog) > 1e-9 {
		t.Fatalf("sort+OG = %g, SOG = %g", sortPlusOG, sog)
	}
}

func TestPaperFigure5HandCalculation(t *testing.T) {
	// Reproduce the plan costs behind Figure 5's dense column with the
	// model alone (the optimiser test reproduces them via full DP).
	m := Paper{}
	const r, s, joinOut, g = 20000, 90000, 90000, 20000

	sphPlan := m.Join(joinChoice(physical.SPHJ, physical.JoinOptions{}), r, s, r) +
		m.Group(groupChoice(physical.SPHG, physical.GroupOptions{}), joinOut, g)
	if sphPlan != 200000 {
		t.Fatalf("SPHJ+SPHG = %g, want 200000", sphPlan)
	}
	hashPlan := m.Join(joinChoice(physical.HJ, physical.JoinOptions{}), r, s, r) +
		m.Group(groupChoice(physical.HG, physical.GroupOptions{}), joinOut, g)
	if hashPlan != 800000 {
		t.Fatalf("HJ+HG = %g, want 800000", hashPlan)
	}
	if hashPlan/sphPlan != 4 {
		t.Fatalf("improvement factor = %g, want 4 (paper Figure 5, unsorted dense)", hashPlan/sphPlan)
	}
	orderPlan := m.Join(joinChoice(physical.OJ, physical.JoinOptions{}), r, s, r) +
		m.Group(groupChoice(physical.OG, physical.GroupOptions{}), joinOut, g)
	if orderPlan != 200000 {
		t.Fatalf("OJ+OG = %g, want 200000 (ties SPH: Figure 5's 1x sorted row)", orderPlan)
	}
}

func TestPaperScanFree(t *testing.T) {
	m := Paper{}
	if m.Scan(1e9) != 0 {
		t.Fatal("paper model must not charge scans")
	}
	if m.Filter(90) != 90 {
		t.Fatal("paper filter should cost one pass")
	}
}

func TestLog2Guards(t *testing.T) {
	if log2(0) != 0 || log2(1) != 0 {
		t.Fatal("log2 must clamp below 2")
	}
	if log2(8) != 3 {
		t.Fatal("log2(8) != 3")
	}
}

func TestUnknownKindsAreInfinite(t *testing.T) {
	for _, m := range []Model{Paper{}, NewCalibrated()} {
		if !math.IsInf(m.Group(groupChoice(physical.GroupKind(99), physical.GroupOptions{}), 10, 1), 1) {
			t.Fatalf("%s: unknown group kind not infinite", m.Name())
		}
		if !math.IsInf(m.Join(joinChoice(physical.JoinKind(99), physical.JoinOptions{}), 10, 10, 1), 1) {
			t.Fatalf("%s: unknown join kind not infinite", m.Name())
		}
	}
}

func TestCalibratedDiscriminatesHashes(t *testing.T) {
	m := NewCalibrated()
	const rows, groups = 1e6, 100
	murmur := m.Group(groupChoice(physical.HG, physical.GroupOptions{Hash: hashtable.Murmur3Fin}), rows, groups)
	fib := m.Group(groupChoice(physical.HG, physical.GroupOptions{Hash: hashtable.Fibonacci}), rows, groups)
	if fib >= murmur {
		t.Fatal("calibrated model cannot discriminate hash functions")
	}
}

func TestCalibratedCachePenaltyGrowsWithGroups(t *testing.T) {
	m := NewCalibrated()
	const rows = 1e7
	small := m.Group(groupChoice(physical.HG, physical.GroupOptions{}), rows, 100)
	large := m.Group(groupChoice(physical.HG, physical.GroupOptions{}), rows, 1e6)
	if large <= small {
		t.Fatal("HG cost must grow with group count (cache model)")
	}
	// SPHG is flat in group count.
	s1 := m.Group(groupChoice(physical.SPHG, physical.GroupOptions{}), rows, 100)
	s2 := m.Group(groupChoice(physical.SPHG, physical.GroupOptions{}), rows, 1e6)
	if s1 != s2 {
		t.Fatal("SPHG cost must be independent of group count")
	}
}

func TestCalibratedParallelSPHG(t *testing.T) {
	m := NewCalibrated()
	const rows, groups = 1e8, 1000
	serial := m.Group(groupChoice(physical.SPHG, physical.GroupOptions{}), rows, groups)
	parallel := m.Group(groupChoice(physical.SPHG, physical.GroupOptions{Parallel: 8}), rows, groups)
	if parallel >= serial {
		t.Fatal("parallel SPHG should win on huge inputs")
	}
	// On tiny inputs the fork overhead dominates.
	serialTiny := m.Group(groupChoice(physical.SPHG, physical.GroupOptions{}), 1000, 10)
	parallelTiny := m.Group(groupChoice(physical.SPHG, physical.GroupOptions{Parallel: 8}), 1000, 10)
	if parallelTiny <= serialTiny {
		t.Fatal("parallel SPHG should lose on tiny inputs")
	}
}

func TestCalibratedSortKinds(t *testing.T) {
	m := NewCalibrated()
	const rows = 1e8
	radix := m.SortBy(rows, sortx.Radix)
	cmp := m.SortBy(rows, sortx.Comparison)
	if radix >= cmp {
		t.Fatal("radix should beat comparison sort on huge uint32 inputs")
	}
	// On tiny inputs comparison wins (radix's fixed passes dominate; the
	// modelled crossover sits at a handful of rows).
	if m.SortBy(4, sortx.Comparison) >= m.SortBy(4, sortx.Radix) {
		t.Fatal("comparison sort should win on tiny inputs")
	}
}

func TestCalibratedBSGCrossover(t *testing.T) {
	// The paper's unsorted-sparse zoom: BSG beats HG for very few groups,
	// HG wins for many. The calibrated model must reproduce the crossover.
	m := NewCalibrated()
	const rows = 1e8
	hg := func(groups float64) float64 {
		return m.Group(groupChoice(physical.HG, physical.GroupOptions{}), rows, groups)
	}
	bsg := func(groups float64) float64 {
		return m.Group(groupChoice(physical.BSG, physical.GroupOptions{}), rows, groups)
	}
	if bsg(4) >= hg(4) {
		t.Fatalf("BSG should win at 4 groups: BSG=%g HG=%g", bsg(4), hg(4))
	}
	if bsg(40000) <= hg(40000) {
		t.Fatalf("HG should win at 40000 groups: BSG=%g HG=%g", bsg(40000), hg(40000))
	}
}

func TestModelNames(t *testing.T) {
	if (Paper{}).Name() != "paper" || NewCalibrated().Name() != "calibrated" {
		t.Fatal("model names wrong")
	}
}

func TestMeasureProducesUsableModel(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	// One timing per coefficient can land on a preempted slice (OG was once
	// timed at 41 ns/row under load), so every coefficient the checks read
	// is the median of several measurements.
	const runs = 5
	ms := make([]*Calibrated, runs)
	for i := range ms {
		ms[i] = Measure(1 << 17)
	}
	median := func(coef func(*Calibrated) float64) float64 {
		xs := make([]float64, runs)
		for i, mi := range ms {
			xs[i] = coef(mi)
		}
		slices.Sort(xs)
		return xs[runs/2]
	}
	m := ms[0]
	m.InsertNS = median(func(c *Calibrated) float64 { return c.InsertNS })
	m.RadixRowNS = median(func(c *Calibrated) float64 { return c.RadixRowNS })
	m.CmpRowNS = median(func(c *Calibrated) float64 { return c.CmpRowNS })
	m.SPHRowNS = median(func(c *Calibrated) float64 { return c.SPHRowNS })
	m.OGRowNS = median(func(c *Calibrated) float64 { return c.OGRowNS })
	m.BSRowLogNS = median(func(c *Calibrated) float64 { return c.BSRowLogNS })
	m.CacheNS = median(func(c *Calibrated) float64 { return c.CacheNS })
	for _, f := range hashtable.Funcs() {
		m.HashNS[f] = median(func(c *Calibrated) float64 { return c.HashNS[f] })
	}
	if m.InsertNS <= 0 {
		t.Fatalf("insert coefficient %g", m.InsertNS)
	}
	for _, f := range hashtable.Funcs() {
		if m.HashNS[f] < 0 {
			t.Fatalf("hash %s coefficient %g", f, m.HashNS[f])
		}
	}
	if m.RadixRowNS <= 0 || m.CmpRowNS <= 0 || m.SPHRowNS <= 0 || m.OGRowNS <= 0 || m.BSRowLogNS <= 0 {
		t.Fatalf("non-positive kernel coefficients: %+v", m)
	}
	// The fitted model must still price real workloads finitely and keep
	// the structural facts every machine shares: OG is cheaper per row than
	// hashing, and so is SPH.
	const rows, groups = 1e7, 1e4
	og := m.Group(groupChoice(physical.OG, physical.GroupOptions{}), rows, groups)
	sph := m.Group(groupChoice(physical.SPHG, physical.GroupOptions{}), rows, groups)
	hg := m.Group(groupChoice(physical.HG, physical.GroupOptions{}), rows, groups)
	if !(og < hg && sph < hg) {
		t.Fatalf("fitted model lost structure: OG=%g SPHG=%g HG=%g", og, sph, hg)
	}
	if math.IsInf(m.Join(joinChoice(physical.SOJ, physical.JoinOptions{}), rows, rows, groups), 0) {
		t.Fatal("fitted model prices SOJ as infinite")
	}
}
