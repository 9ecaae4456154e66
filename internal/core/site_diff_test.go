package core

import (
	"fmt"
	"sync"
	"testing"

	"dqo/internal/logical"
)

// samePlan reports how two plan trees differ in anything the optimiser
// decides or derives, "" when they do not. Costs and memory estimates are
// compared exactly: a site table is a cheaper way to keep the same numbers.
func samePlan(got, want *Plan) string {
	switch {
	case got.Label() != want.Label():
		return fmt.Sprintf("label %q, want %q", got.Label(), want.Label())
	case got.Cost != want.Cost || got.Mem != want.Mem || got.Rows != want.Rows || got.Width != want.Width:
		return fmt.Sprintf("%s: cost/mem/rows/width %v/%v/%v/%v, want %v/%v/%v/%v", got.Label(),
			got.Cost, got.Mem, got.Rows, got.Width, want.Cost, want.Mem, want.Rows, want.Width)
	case got.DOP != want.DOP || got.Spill != want.Spill || got.Swapped != want.Swapped || got.KeyDom != want.KeyDom:
		return fmt.Sprintf("%s: dop/spill/swapped/keydom %v/%v/%v/%v, want %v/%v/%v/%v", got.Label(),
			got.DOP, got.Spill, got.Swapped, got.KeyDom, want.DOP, want.Spill, want.Swapped, want.KeyDom)
	case got.Props.Fingerprint() != want.Props.Fingerprint():
		return fmt.Sprintf("%s: props %s, want %s", got.Label(), got.Props.Fingerprint(), want.Props.Fingerprint())
	case len(got.Children) != len(want.Children):
		return fmt.Sprintf("%s: %d children, want %d", got.Label(), len(got.Children), len(want.Children))
	}
	for i := range got.Children {
		if diff := samePlan(got.Children[i], want.Children[i]); diff != "" {
			return diff
		}
	}
	return ""
}

// sameTable compares a site's DP table of slots, each built into its plan,
// with the reference's table of plans, entry by entry, in order.
func sameTable(o *optimizer, got []slot, want []*Plan) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		p := o.build(&got[i])
		if diff := samePlan(p, want[i]); diff != "" {
			return fmt.Sprintf("entry %d: %s", i, diff)
		}
		if got[i].key != got[i].props.Key() {
			return fmt.Sprintf("entry %d: %s is not keyed by its properties", i, p.Label())
		}
	}
	return ""
}

// TestSiteTablesMatchCollectThenPrune is the differential test of the
// enumeration itself: at every site of every corpus query, under every mode
// that enumerates, the table that costs an alternative before it builds it
// must be the table the reference gets by building every alternative, pruning
// the list against the budget and keeping the cheapest per property vector —
// the same plans with the same costs and memory estimates in the same order —
// and at the root the same plan, alternatives costed and entries kept. The
// flat mode ties every alternative at every kind of site, so "the first
// enumerated wins" is part of what is compared. The reference is slow (it is the parent's cost), so
// the grid is thinned here: every other query, one tail per FROM order and
// filter of the star shapes, and under a budget one diagonal of beam x DOP.
// The whole grid is pinned to the parent's output by
// TestEnumerationMatchesGolden.
func TestSiteTablesMatchCollectThenPrune(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the reference enumeration is slow")
	}
	t.Parallel()
	unbudgeted := map[logical.Node]float64{}
	forEachEnumConfig(t, func(name string, mode Mode, budget enumBudget, queries []logical.Node) {
		if mode.Greedy {
			return // no tables; pinned by TestEnumerationMatchesGolden
		}
		// Beam x DOP in full without a budget, one diagonal of it under each.
		if diagonal := map[[2]int]bool{{0, 1}: true, {2, 4}: true, {8, 2}: true}; budget.name != "none" && !diagonal[[2]int{mode.Beam, mode.DOP}] {
			return
		}
		star := len(queries) - 2*starShapes
		for qi, q := range queries {
			if qi >= star && (qi-star)%3 != ((qi-star)/3)%3 || qi < star && qi%2 == 1 {
				continue
			}
			mem, ok := unbudgeted[q]
			if !ok {
				mem = optimize(t, q, DQOCalibrated()).Best.Mem
				unbudgeted[q] = mem
			}
			mode.MemBudget = budget.of(mem)

			ro, err := newOptimizer(q, mode, logical.NewEstimator())
			if err != nil {
				t.Fatal(err)
			}
			ref := &refOptimizer{ro, map[logical.Node][]*Plan{}}
			table, refErr := ref.optimize(q)
			var sites func(n logical.Node)
			sites = func(n logical.Node) {
				o, err := newOptimizer(n, mode, logical.NewEstimator())
				if err != nil {
					t.Fatal(err)
				}
				got, err := o.optimize(n)
				want, reached := ref.tables[n]
				if (err == nil) != reached {
					t.Fatalf("%s: query %d, site %s: error %v, reference %v", name, qi, n, err, refErr)
				}
				if diff := sameTable(o, got, want); diff != "" {
					t.Fatalf("%s: query %d, site %s: %s", name, qi, n, diff)
				}
				for _, c := range n.Children() {
					sites(c)
				}
			}
			sites(q)
			if refErr != nil {
				continue
			}
			res := optimize(t, q, mode)
			want := table[0]
			for _, p := range table {
				if p.Cost < want.Cost {
					want = p
				}
			}
			if res.Best.Explain() != want.Explain() {
				t.Fatalf("%s: query %d: chose\n%swant\n%s", name, qi, res.Best.Explain(), want.Explain())
			}
			if res.Stats.Alternatives != ref.stats.Alternatives || res.Stats.Kept != len(table) {
				t.Fatalf("%s: query %d: %d alternatives costed, %d kept; reference %d, %d", name, qi,
					res.Stats.Alternatives, res.Stats.Kept, ref.stats.Alternatives, len(table))
			}
		}
	})
}

// TestConcurrentOptimizeSharesChoiceLists plans the adhoc-plan shapes, in
// both layouts, from eight goroutines at once: the choice lists are
// package-level and read-only, and every goroutine must arrive at the serial
// run's plans.
func TestConcurrentOptimizeSharesChoiceLists(t *testing.T) {
	queries := enumQueries(t, false)
	queries = queries[len(queries)-2*starShapes:]
	mode := DQO()
	mode.DOP = 1 // the shared serial lists
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = optimize(t, q, mode).Best.ExplainDeep()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range queries {
				i := (k + g*5) % len(queries)
				res, err := Optimize(queries[i], mode)
				if err != nil {
					t.Errorf("goroutine %d, shape %d: %v", g, i, err)
					return
				}
				if got := res.Best.ExplainDeep(); got != want[i] {
					t.Errorf("goroutine %d, shape %d: planned\n%swant\n%s", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPushedStarShapesAreTheBinders: the corpus's second layout of the star
// shapes, built by hand, is what logical.PushFilters makes of the first.
func TestPushedStarShapesAreTheBinders(t *testing.T) {
	qs := enumQueries(t, false)
	written, pushed := qs[len(qs)-2*starShapes:len(qs)-starShapes], qs[len(qs)-starShapes:]
	for i := range written {
		if got, want := logical.Format(logical.PushFilters(written[i])), logical.Format(pushed[i]); got != want {
			t.Fatalf("shape %d: PushFilters makes\n%swant\n%s", i, got, want)
		}
	}
}
