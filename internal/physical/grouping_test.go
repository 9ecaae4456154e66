package physical

import (
	"fmt"
	"testing"
	"testing/quick"

	"dqo/internal/datagen"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/xrand"
)

// refState is one group's aggregates as the naive reference computes them.
type refState struct{ Count, Sum, Min, Max int64 }

// refGroup is the trivially correct reference.
func refGroup(keys []uint32, vals []int64) map[uint32]refState {
	ref := map[uint32]refState{}
	for i, k := range keys {
		st := ref[k]
		var v int64
		if vals != nil {
			v = vals[i]
		}
		if st.Count == 0 {
			st.Min, st.Max = v, v
		} else {
			st.Min, st.Max = min(st.Min, v), max(st.Max, v)
		}
		st.Count++
		st.Sum += v
		ref[k] = st
	}
	return ref
}

// stateAt reads group i of res back as a refState; an aggregate the kernel
// was not asked for reads as the reference's value, so it compares equal.
func stateAt(res *GroupResult, i int, want refState) refState {
	got := refState{Count: res.Counts[i], Sum: want.Sum, Min: want.Min, Max: want.Max}
	if len(res.Aggs) > 0 {
		if c := res.Aggs[0]; c.Sum != nil {
			got.Sum = c.Sum[i]
		}
		if c := res.Aggs[0]; c.Min != nil {
			got.Min = c.Min[i]
		}
		if c := res.Aggs[0]; c.Max != nil {
			got.Max = c.Max[i]
		}
	}
	return got
}

// groupWide is Group asking for every aggregate of vals, so the kernels run
// over the 32-byte state.
func groupWide(kind GroupKind, keys []uint32, vals []int64, dom props.Domain, opt GroupOptions) (*GroupResult, error) {
	return groupArgs(kind, keys, []aggArg{{vals: argVals{i64: vals}, need: needSum | needMin | needMax}}, dom, opt)
}

func checkResult(t *testing.T, label string, res *GroupResult, ref map[uint32]refState) {
	t.Helper()
	if len(res.Keys) != len(ref) {
		t.Fatalf("%s: %d groups, want %d", label, len(res.Keys), len(ref))
	}
	if len(res.Keys) != len(res.Counts) {
		t.Fatalf("%s: keys/counts length mismatch", label)
	}
	seen := map[uint32]bool{}
	for i, k := range res.Keys {
		if seen[k] {
			t.Fatalf("%s: duplicate group key %d", label, k)
		}
		seen[k] = true
		want, ok := ref[k]
		if !ok {
			t.Fatalf("%s: unexpected group key %d", label, k)
		}
		if got := stateAt(res, i, want); got != want {
			t.Fatalf("%s: key %d state %+v, want %+v", label, k, got, want)
		}
	}
	if res.Sorted && !sortx.IsSortedUint32(res.Keys) {
		t.Fatalf("%s: claims sorted output but keys are unsorted", label)
	}
}

// domFromKeys computes an exact domain the way the storage stats would.
func domFromKeys(keys []uint32) props.Domain {
	if len(keys) == 0 {
		return props.Domain{}
	}
	mn, mx := keys[0], keys[0]
	distinct := map[uint32]struct{}{}
	for _, k := range keys {
		if k < mn {
			mn = k
		}
		if k > mx {
			mx = k
		}
		distinct[k] = struct{}{}
	}
	return props.Domain{
		Known: true, Lo: uint64(mn), Hi: uint64(mx),
		Distinct: int64(len(distinct)),
		Dense:    uint64(len(distinct)) == uint64(mx)-uint64(mn)+1,
	}
}

// applicable reports whether a grouping kind can run on the given quadrant.
func applicable(k GroupKind, q datagen.Quadrant) bool {
	switch k {
	case SPHG:
		return q.Dense
	case OG:
		return q.Sorted
	default:
		return true
	}
}

func TestGroupAllKindsAllQuadrants(t *testing.T) {
	const n, g = 30000, 257
	for _, q := range datagen.Quadrants() {
		keys := datagen.GroupingKeys(1, n, g, q)
		vals := make([]int64, n)
		r := xrand.New(2)
		for i := range vals {
			vals[i] = int64(r.Uint64n(1000)) - 500
		}
		ref := refGroup(keys, vals)
		dom := domFromKeys(keys)
		for _, k := range GroupKinds() {
			if !applicable(k, q) {
				continue
			}
			for _, group := range []func(GroupKind, []uint32, []int64, props.Domain, GroupOptions) (*GroupResult, error){Group, groupWide} {
				res, err := group(k, keys, vals, dom, GroupOptions{})
				if err != nil {
					t.Fatalf("%s on %s: %v", k, q, err)
				}
				checkResult(t, k.String()+"/"+q.String(), res, ref)
			}
		}
	}
}

func TestGroupSortedOutputClaims(t *testing.T) {
	const n, g = 10000, 100
	q := datagen.Quadrant{Sorted: false, Dense: true}
	keys := datagen.GroupingKeys(3, n, g, q)
	dom := domFromKeys(keys)
	for _, k := range []GroupKind{SPHG, SOG, BSG} {
		res, err := Group(k, keys, nil, dom, GroupOptions{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if !res.Sorted || !sortx.IsSortedUint32(res.Keys) {
			t.Fatalf("%s must produce sorted output on unsorted input", k)
		}
	}
	// OG on sorted input produces sorted output.
	sortedKeys := datagen.GroupingKeys(3, n, g, datagen.Quadrant{Sorted: true, Dense: true})
	res, err := Group(OG, sortedKeys, nil, domFromKeys(sortedKeys), GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sorted {
		t.Fatal("OG on sorted input must claim sorted output")
	}
}

func TestSPHGRequiresDenseDomain(t *testing.T) {
	keys := []uint32{1, 5, 9}
	if _, err := Group(SPHG, keys, nil, domFromKeys(keys), GroupOptions{}); err == nil {
		t.Fatal("SPHG accepted a sparse domain")
	}
	if _, err := Group(SPHG, keys, nil, props.Domain{}, GroupOptions{}); err == nil {
		t.Fatal("SPHG accepted an unknown domain")
	}
}

func TestSPHGRejectsHugeDomain(t *testing.T) {
	dom := props.Domain{Known: true, Dense: true, Lo: 0, Hi: 1 << 30, Distinct: 1<<30 + 1}
	if _, err := Group(SPHG, []uint32{0}, nil, dom, GroupOptions{}); err == nil {
		t.Fatal("SPHG accepted an over-wide domain")
	}
}

func TestSPHGNonZeroBasedDomain(t *testing.T) {
	// Dense does not mean zero-based: keys 100..104.
	keys := []uint32{104, 100, 102, 101, 103, 100}
	res, err := Group(SPHG, keys, []int64{1, 2, 3, 4, 5, 6}, domFromKeys(keys), GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "SPHG offset", res, refGroup(keys, []int64{1, 2, 3, 4, 5, 6}))
	if res.Keys[0] != 100 || res.Keys[4] != 104 {
		t.Fatalf("keys = %v", res.Keys)
	}
}

func TestOGRejectsUngroupedInput(t *testing.T) {
	keys := []uint32{1, 2, 1} // key 1 restarts: not grouped
	if _, err := Group(OG, keys, nil, domFromKeys(keys), GroupOptions{}); err == nil {
		t.Fatal("OG accepted ungrouped input (known domain)")
	}
	if _, err := Group(OG, keys, nil, props.Domain{}, GroupOptions{}); err == nil {
		t.Fatal("OG accepted ungrouped input (unknown domain)")
	}
	// Runs of keys spread over the 32-bit span, the first run's key
	// repeated at the end: the restart is found however far apart the keys.
	var wide []uint32
	for g := uint32(0); g < 5000; g++ {
		k := (g * 7919 % 5000) * 2654435761
		wide = append(wide, k, k, k)
	}
	wide = append(wide, wide[0])
	if _, err := Group(OG, wide, nil, props.Domain{}, GroupOptions{}); err == nil {
		t.Fatal("OG accepted a repeated first run over a wide key span")
	}
}

func TestOGAcceptsGroupedUnsortedInput(t *testing.T) {
	// Grouped but not sorted: runs 7, 3, 9.
	keys := []uint32{7, 7, 3, 3, 3, 9}
	vals := []int64{1, 2, 3, 4, 5, 6}
	res, err := Group(OG, keys, vals, domFromKeys(keys), GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "OG grouped", res, refGroup(keys, vals))
	if res.Sorted {
		t.Fatal("OG on grouped-unsorted input must not claim sorted output")
	}
	// First-run order preserved.
	if res.Keys[0] != 7 || res.Keys[1] != 3 || res.Keys[2] != 9 {
		t.Fatalf("keys = %v, want run order [7 3 9]", res.Keys)
	}
}

func TestGroupEmptyInput(t *testing.T) {
	for _, k := range GroupKinds() {
		dom := props.Domain{}
		if k == SPHG {
			dom = props.Domain{Known: true, Dense: true, Lo: 0, Hi: 9, Distinct: 10}
		}
		res, err := Group(k, nil, nil, dom, GroupOptions{})
		if err != nil {
			t.Fatalf("%s on empty input: %v", k, err)
		}
		if len(res.Keys) != 0 {
			t.Fatalf("%s on empty input produced %d groups", k, len(res.Keys))
		}
	}
}

func TestGroupSingleGroup(t *testing.T) {
	keys := []uint32{42, 42, 42, 42}
	vals := []int64{1, 2, 3, 4}
	ref := refGroup(keys, vals)
	dom := domFromKeys(keys)
	for _, k := range GroupKinds() {
		res, err := Group(k, keys, vals, dom, GroupOptions{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		checkResult(t, k.String(), res, ref)
	}
}

func TestGroupNilValsCountsOnly(t *testing.T) {
	keys := []uint32{0, 0, 0, 1, 1} // grouped+sorted+dense: every kind applies
	dom := domFromKeys(keys)
	for _, k := range GroupKinds() {
		res, err := Group(k, keys, nil, dom, GroupOptions{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.Aggs != nil {
			t.Fatalf("%s: nil vals produced argument aggregates", k)
		}
		total := int64(0)
		for _, c := range res.Counts {
			total += c
		}
		if total != 5 {
			t.Fatalf("%s: counts sum to %d, want 5", k, total)
		}
	}
}

func TestHGAllHashes(t *testing.T) {
	keys := datagen.GroupingKeys(5, 20000, 123, datagen.Quadrant{Sorted: false, Dense: false})
	vals := make([]int64, len(keys))
	for i := range vals {
		vals[i] = int64(i % 7)
	}
	ref := refGroup(keys, vals)
	for _, f := range hashtable.Funcs() {
		res, err := Group(HG, keys, vals, props.Domain{}, GroupOptions{Hash: f})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		checkResult(t, "HG/"+f.String(), res, ref)
	}
}

func TestSOGAllSortKinds(t *testing.T) {
	keys := datagen.GroupingKeys(6, 20000, 77, datagen.Quadrant{Sorted: false, Dense: false})
	vals := make([]int64, len(keys))
	for i := range vals {
		vals[i] = int64(i)
	}
	ref := refGroup(keys, vals)
	for _, sk := range sortx.Kinds() {
		res, err := Group(SOG, keys, vals, domFromKeys(keys), GroupOptions{Sort: sk})
		if err != nil {
			t.Fatalf("%s: %v", sk, err)
		}
		checkResult(t, "SOG/"+sk.String(), res, ref)
		if !res.Sorted {
			t.Fatalf("SOG/%s output not sorted", sk)
		}
	}
	// SOG must not mutate its input.
	if sortx.IsSortedUint32(keys) {
		t.Fatal("SOG sorted its input in place")
	}
}

func TestSPHGParallelMatchesSerial(t *testing.T) {
	keys := datagen.GroupingKeys(7, 50000, 500, datagen.Quadrant{Sorted: false, Dense: true})
	vals := make([]int64, len(keys))
	for i := range vals {
		vals[i] = int64(i % 13)
	}
	dom := domFromKeys(keys)
	serial, err := groupWide(SPHG, keys, vals, dom, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 8} {
		par, err := groupWide(SPHG, keys, vals, dom, GroupOptions{Parallel: p})
		if err != nil {
			t.Fatalf("parallel=%d: %v", p, err)
		}
		sameGroupResult(t, fmt.Sprintf("parallel=%d", p), serial, par)
	}
}

func TestGroupQuickEquivalence(t *testing.T) {
	// Property: all applicable algorithms agree with the reference on
	// arbitrary inputs.
	f := func(rawKeys []uint32, seed uint64) bool {
		if len(rawKeys) == 0 {
			return true
		}
		keys := make([]uint32, len(rawKeys))
		for i, k := range rawKeys {
			keys[i] = k % 64 // mostly-dense-ish small domain
		}
		r := xrand.New(seed)
		vals := make([]int64, len(keys))
		for i := range vals {
			vals[i] = int64(r.Uint64n(100)) - 50
		}
		ref := refGroup(keys, vals)
		dom := domFromKeys(keys)
		kinds := []GroupKind{HG, SOG, BSG}
		if dom.Dense {
			kinds = append(kinds, SPHG)
		}
		for _, k := range kinds {
			res, err := groupWide(k, keys, vals, dom, GroupOptions{})
			if err != nil {
				return false
			}
			if len(res.Keys) != len(ref) {
				return false
			}
			for i, key := range res.Keys {
				if stateAt(res, i, refState{}) != ref[key] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupKindMetadata(t *testing.T) {
	if len(GroupKinds()) != int(BSG)+1 {
		t.Fatal("GroupKinds incomplete")
	}
	names := map[string]bool{}
	for _, k := range GroupKinds() {
		names[k.String()] = true
	}
	for _, want := range []string{"HG", "SPHG", "OG", "SOG", "BSG"} {
		if !names[want] {
			t.Fatalf("missing kind %s", want)
		}
	}
	if reqs := SPHG.Requirements("k"); len(reqs) != 1 || reqs[0].Kind != props.ReqDense {
		t.Fatal("SPHG requirements wrong")
	}
	if reqs := OG.Requirements("k"); len(reqs) != 1 || reqs[0].Kind != props.ReqGrouped {
		t.Fatal("OG requirements wrong")
	}
	if len(HG.Requirements("k")) != 0 || len(SOG.Requirements("k")) != 0 || len(BSG.Requirements("k")) != 0 {
		t.Fatal("HG/SOG/BSG must be requirement-free")
	}
}

func TestGroupOutputProps(t *testing.T) {
	in := props.NewSet().WithSortedBy("k").
		WithDomain("k", props.Domain{Known: true, Dense: true, Lo: 0, Hi: 9, Distinct: 10})
	for _, k := range []GroupKind{SPHG, SOG, BSG} {
		out := k.OutputProps(in, "k")
		if !out.SortedOn("k") {
			t.Fatalf("%s output should be sorted", k)
		}
		if !out.DenseOn("k") {
			t.Fatalf("%s output should keep the dense domain", k)
		}
	}
	if out := OG.OutputProps(in, "k"); !out.SortedOn("k") {
		t.Fatal("OG on sorted input should stay sorted")
	}
	grouped := props.NewSet().WithGroupedBy("k")
	if out := OG.OutputProps(grouped, "k"); out.SortedOn("k") || !out.GroupedOn("k") {
		t.Fatal("OG on grouped input should stay grouped, not sorted")
	}
	if out := HG.OutputProps(in, "k"); out.SortedOn("k") || !out.GroupedOn("k") {
		t.Fatal("HG output should be grouped but unsorted")
	}
}

func TestSearchUint32(t *testing.T) {
	xs := []uint32{2, 4, 4, 8}
	cases := []struct {
		k     uint32
		pos   int
		found bool
	}{
		{1, 0, false}, {2, 0, true}, {3, 1, false}, {4, 1, true},
		{5, 3, false}, {8, 3, true}, {9, 4, false},
	}
	for _, c := range cases {
		pos, found := searchUint32(xs, c.k)
		if pos != c.pos || found != c.found {
			t.Fatalf("search(%d) = (%d,%v), want (%d,%v)", c.k, pos, found, c.pos, c.found)
		}
	}
	if pos, found := searchUint32(nil, 1); pos != 0 || found {
		t.Fatal("search on empty slice wrong")
	}
}

func TestSPHGRejectsKeysOutsideDeclaredDomain(t *testing.T) {
	// Data drift after planning: the declared domain no longer covers the
	// keys. The kernel must fail cleanly, not misaddress the array.
	dom := props.Domain{Known: true, Dense: true, Lo: 10, Hi: 12, Distinct: 3}
	for _, keys := range [][]uint32{{10, 13}, {9, 10}, {10, 4000000}} {
		if _, err := Group(SPHG, keys, nil, dom, GroupOptions{}); err == nil {
			t.Fatalf("keys %v accepted for domain [10,12]", keys)
		}
		if _, err := Group(SPHG, keys, []int64{1, 2}, dom, GroupOptions{}); err == nil {
			t.Fatalf("keys %v (with vals) accepted for domain [10,12]", keys)
		}
		if _, err := Group(SPHG, keys, []int64{1, 2}, dom, GroupOptions{Parallel: 2}); err == nil {
			t.Fatalf("keys %v (parallel) accepted for domain [10,12]", keys)
		}
	}
}
