package physical

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dqo/internal/datagen"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// scanSets numbers the relations in one table, deep (dense) or not, and
// returns each one's scan property set and the table's ordinal of a name.
func scanSets(dense bool, rels ...*storage.Relation) ([]props.Set, func(string) props.Col) {
	tab := props.NewTable(rels, nil, dense)
	sets := make([]props.Set, len(rels))
	for i, r := range rels {
		sets[i] = tab.Scan(r)
	}
	return sets, func(name string) props.Col {
		c, ok := tab.Col(name)
		if !ok {
			panic("no column " + name)
		}
		return c
	}
}

// upTo returns the uint32 column name holding 0..n-1: sorted and dense.
func upTo(name string, n int) *storage.Column {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	return storage.NewUint32(name, vals)
}

// refJoin computes all matching pairs by nested loops.
func refJoin(left, right []uint32) map[[2]int32]bool {
	ref := map[[2]int32]bool{}
	for i, lk := range left {
		for j, rk := range right {
			if lk == rk {
				ref[[2]int32{int32(i), int32(j)}] = true
			}
		}
	}
	return ref
}

func checkJoin(t *testing.T, label string, res *JoinResult, ref map[[2]int32]bool, left, right []uint32) {
	t.Helper()
	if len(res.LeftIdx) != len(res.RightIdx) {
		t.Fatalf("%s: index arrays differ in length", label)
	}
	if res.Len() != len(ref) {
		t.Fatalf("%s: %d pairs, want %d", label, res.Len(), len(ref))
	}
	seen := map[[2]int32]bool{}
	for i := range res.LeftIdx {
		p := [2]int32{res.LeftIdx[i], res.RightIdx[i]}
		if !ref[p] {
			t.Fatalf("%s: spurious pair %v", label, p)
		}
		if seen[p] {
			t.Fatalf("%s: duplicate pair %v", label, p)
		}
		seen[p] = true
	}
	if res.SortedByKey {
		for i := 1; i < res.Len(); i++ {
			if left[res.LeftIdx[i-1]] > left[res.LeftIdx[i]] {
				t.Fatalf("%s: claims sorted output but keys descend at %d", label, i)
			}
		}
	}
}

func joinApplicable(k JoinKind, leftDom props.Domain, leftSorted, rightSorted bool) bool {
	switch k {
	case SPHJ:
		return leftDom.Dense && leftDom.Known
	case OJ:
		return leftSorted && rightSorted
	default:
		return true
	}
}

func TestJoinAllKinds(t *testing.T) {
	r := xrand.New(1)
	for _, leftSorted := range []bool{true, false} {
		for _, rightSorted := range []bool{true, false} {
			for _, dense := range []bool{true, false} {
				left := datagen.GroupingKeys(2, 500, 100, datagen.Quadrant{Sorted: leftSorted, Dense: dense})
				right := make([]uint32, 800)
				for i := range right {
					right[i] = left[r.Uint64n(uint64(len(left)))]
				}
				if rightSorted {
					sort.Slice(right, func(a, b int) bool { return right[a] < right[b] })
				}
				ref := refJoin(left, right)
				dom := domFromKeys(left)
				for _, k := range JoinKinds() {
					if !joinApplicable(k, dom, leftSorted, rightSorted) {
						continue
					}
					res, err := Join(k, left, right, dom, JoinOptions{})
					if err != nil {
						t.Fatalf("%s (ls=%v rs=%v dense=%v): %v", k, leftSorted, rightSorted, dense, err)
					}
					checkJoin(t, k.String(), res, ref, left, right)
				}
			}
		}
	}
}

func TestJoinDuplicateKeysBothSides(t *testing.T) {
	left := []uint32{5, 5, 7, 9, 9, 9}
	right := []uint32{9, 5, 9, 6}
	ref := refJoin(left, right) // 5 matches twice, 9 matches 3*2 = 6: total 2+6 = 8
	if len(ref) != 8 {
		t.Fatalf("reference self-check failed: %d", len(ref))
	}
	dom := domFromKeys(left)
	for _, k := range []JoinKind{HJ, SOJ, BSJ} {
		res, err := Join(k, left, right, dom, JoinOptions{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		checkJoin(t, k.String(), res, ref, left, right)
	}
}

func TestSPHJRequiresDense(t *testing.T) {
	left := []uint32{1, 5, 9}
	if _, err := Join(SPHJ, left, []uint32{5}, domFromKeys(left), JoinOptions{}); err == nil {
		t.Fatal("SPHJ accepted sparse build domain")
	}
}

func TestSPHJRejectsHugeDomain(t *testing.T) {
	dom := props.Domain{Known: true, Dense: true, Lo: 0, Hi: 1 << 30, Distinct: 1<<30 + 1}
	if _, err := Join(SPHJ, []uint32{0}, []uint32{0}, dom, JoinOptions{}); err == nil {
		t.Fatal("SPHJ accepted over-wide domain")
	}
}

func TestSPHJProbeOutsideDomain(t *testing.T) {
	left := []uint32{10, 11, 12}
	right := []uint32{9, 10, 13, 12}
	res, err := Join(SPHJ, left, right, domFromKeys(left), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkJoin(t, "SPHJ", res, refJoin(left, right), left, right)
}

func TestSPHJRejectsKeyOutsideDeclaredDomain(t *testing.T) {
	// Declared domain is narrower than the data: must fail, not corrupt.
	dom := props.Domain{Known: true, Dense: true, Lo: 0, Hi: 1, Distinct: 2}
	if _, err := Join(SPHJ, []uint32{0, 5}, []uint32{0}, dom, JoinOptions{}); err == nil {
		t.Fatal("SPHJ accepted build key outside declared domain")
	}
}

func TestOJRequiresSortedInputs(t *testing.T) {
	if _, err := Join(OJ, []uint32{2, 1}, []uint32{1, 2}, props.Domain{}, JoinOptions{}); err == nil {
		t.Fatal("OJ accepted unsorted left")
	}
	if _, err := Join(OJ, []uint32{1, 2}, []uint32{2, 1}, props.Domain{}, JoinOptions{}); err == nil {
		t.Fatal("OJ accepted unsorted right")
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	dom := props.Domain{Known: true, Dense: true, Lo: 0, Hi: 0, Distinct: 1}
	for _, k := range JoinKinds() {
		res, err := Join(k, nil, nil, dom, JoinOptions{})
		if err != nil {
			t.Fatalf("%s empty/empty: %v", k, err)
		}
		if res.Len() != 0 {
			t.Fatalf("%s produced pairs from empty inputs", k)
		}
		res, err = Join(k, []uint32{0}, nil, dom, JoinOptions{})
		if err != nil || res.Len() != 0 {
			t.Fatalf("%s left-only: %v len=%d", k, err, res.Len())
		}
	}
}

func TestJoinNoMatches(t *testing.T) {
	left := []uint32{0, 1, 2}
	right := []uint32{10, 11}
	dom := domFromKeys(left)
	for _, k := range JoinKinds() {
		res, err := Join(k, left, right, dom, JoinOptions{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.Len() != 0 {
			t.Fatalf("%s found phantom matches", k)
		}
	}
}

func TestJoinQuickEquivalence(t *testing.T) {
	f := func(rawL, rawR []uint32) bool {
		left := make([]uint32, len(rawL))
		for i, k := range rawL {
			left[i] = k % 32
		}
		right := make([]uint32, len(rawR))
		for i, k := range rawR {
			right[i] = k % 32
		}
		ref := refJoin(left, right)
		dom := domFromKeys(left)
		kinds := []JoinKind{HJ, SOJ, BSJ}
		if dom.Known && dom.Dense {
			kinds = append(kinds, SPHJ)
		}
		for _, k := range kinds {
			res, err := Join(k, left, right, dom, JoinOptions{})
			if err != nil {
				return false
			}
			if res.Len() != len(ref) {
				return false
			}
			for i := range res.LeftIdx {
				if !ref[[2]int32{res.LeftIdx[i], res.RightIdx[i]}] {
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

func TestOJOutputOrder(t *testing.T) {
	left := []uint32{1, 2, 2, 4}
	right := []uint32{2, 2, 3, 4}
	res, err := Join(OJ, left, right, props.Domain{}, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SortedByKey {
		t.Fatal("OJ output must be sorted by key")
	}
	checkJoin(t, "OJ", res, refJoin(left, right), left, right)
}

func TestJoinFKPairAllKindsAgree(t *testing.T) {
	// The Section 4.3 workload: |R| distinct build keys, FK probes.
	cfg := datagen.FKConfig{RRows: 500, SRows: 2500, AGroups: 50, RSorted: true, SSorted: true, Dense: true}
	r, s := datagen.FKPair(9, cfg)
	left := r.MustColumn("ID").Uint32s()
	right := s.MustColumn("R_ID").Uint32s()
	dom := domainOf(r, "ID")
	var lens []int
	for _, k := range JoinKinds() {
		res, err := Join(k, left, right, dom, JoinOptions{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		lens = append(lens, res.Len())
	}
	for _, l := range lens {
		if l != cfg.SRows { // FK join: output size = |S|
			t.Fatalf("join sizes %v, want all %d", lens, cfg.SRows)
		}
	}
}

func TestJoinKindMetadata(t *testing.T) {
	if len(JoinKinds()) != int(numJoinKinds) {
		t.Fatal("JoinKinds incomplete")
	}
	l, r := SPHJ.Requirements("a", "b")
	if len(l) != 1 || l[0].Kind != props.ReqDense || len(r) != 0 {
		t.Fatal("SPHJ requirements wrong")
	}
	l, r = OJ.Requirements("a", "b")
	if len(l) != 1 || l[0].Kind != props.ReqSorted || len(r) != 1 || r[0].Kind != props.ReqSorted {
		t.Fatal("OJ requirements wrong")
	}
}

func TestJoinOutputProps(t *testing.T) {
	sets, c := scanSets(true, storage.MustNewRelation("L", upTo("ID", 100)), storage.MustNewRelation("S", upTo("R_ID", 100)))
	leftSorted, rightSorted := sets[0], sets[1]
	rightUnsorted := rightSorted.DropOrder()

	out := OJ.OutputProps(leftSorted, rightSorted, c("ID"), c("R_ID"))
	if !out.SortedOn(c("ID")) || !out.DenseOn(c("ID")) {
		t.Fatalf("OJ output props wrong: %s", out)
	}
	out = HJ.OutputProps(leftSorted, rightUnsorted, c("ID"), c("R_ID"))
	if out.SortedOn(c("ID")) {
		t.Fatal("HJ with unsorted probe must not claim order")
	}
	out = SPHJ.OutputProps(leftSorted, rightSorted, c("ID"), c("R_ID"))
	if !out.SortedOn(c("ID")) {
		t.Fatal("probe-major join with sorted probe should claim order")
	}
}

// TestKindsAdmitWhatTheyRequire pins the allocation-free Admits of every join
// and grouping kind to its declarative Requirements, over inputs that hold
// every combination of the properties a requirement can ask for, and in both
// orientations of a join (the commuted join asks the same kind with the
// inputs exchanged).
func TestKindsAdmitWhatTheyRequire(t *testing.T) {
	rel := storage.MustNewRelation("T", upTo("l", 10), upTo("r", 10))
	dense, c := scanSets(true, rel)
	sparse, _ := scanSets(false, rel)
	var inputs []props.Set
	for bits := 0; bits < 8; bits++ {
		s := sparse[0]
		if bits&1 != 0 {
			s = dense[0]
		}
		s = s.DropOrder()
		if bits&2 != 0 {
			s.Sorted = props.ColsOf(c("l"), c("r"))
		} else if bits&4 != 0 {
			s.Grouped = props.ColsOf(c("l"), c("r"))
		}
		inputs = append(inputs, s)
	}
	for _, k := range GroupKinds() {
		for i, in := range inputs {
			if got, want := k.Admits(in, c("l")), in.SatisfiesAll(k.Requirements("l")); got != want {
				t.Fatalf("%s on input %d: Admits = %v, requirements say %v", k, i, got, want)
			}
		}
	}
	for _, k := range JoinKinds() {
		for i, build := range inputs {
			for j, probe := range inputs {
				for _, cols := range [][2]string{{"l", "r"}, {"r", "l"}} {
					breqs, preqs := k.Requirements(cols[0], cols[1])
					want := build.SatisfiesAll(breqs) && probe.SatisfiesAll(preqs)
					if got := k.Admits(build, probe, c(cols[0]), c(cols[1])); got != want {
						t.Fatalf("%s on inputs %d/%d: Admits = %v, requirements say %v", k, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestSortsOutputClassesShareOutputProps pins the rule the enumerators share
// output vectors by: over one input (a grouping) or one pair of inputs in
// either orientation (a join), every admitted kind that SortsOutput puts in
// one class derives output properties with the same key, and the two classes
// differ. The inputs are sorted, grouped or neither on their key, each with a
// dense key domain and a column correlated with the key.
func TestSortsOutputClassesShareOutputProps(t *testing.T) {
	lrel := storage.MustNewRelation("L", upTo("l", 100), upTo("a", 100))
	rrel := storage.MustNewRelation("R", upTo("r", 100), upTo("b", 100))
	lrel.DeclareCorr("l", "a")
	rrel.DeclareCorr("r", "b")
	sets, c := scanSets(true, lrel, rrel)
	orders := []string{"neither", "grouped", "sorted"}
	input := func(key string, order int) props.Set {
		s := sets[0]
		if key == "r" {
			s = sets[1]
		}
		s = s.DropOrder()
		switch orders[order] {
		case "grouped":
			s.Grouped = props.ColsOf(c(key))
		case "sorted":
			s.Sorted = props.ColsOf(c(key))
		}
		return s
	}
	// check records key as the output of kind in class sorted, and fails
	// when its class already holds another key or the other class holds it.
	check := func(classes map[bool]props.Key, label string, kind fmt.Stringer, sorted bool, key props.Key) {
		t.Helper()
		if prev, ok := classes[sorted]; ok && prev != key {
			t.Fatalf("%s: %s (sorted output %v) keys its output apart from its class", label, kind, sorted)
		}
		if other, ok := classes[!sorted]; ok && other == key {
			t.Fatalf("%s: %s (sorted output %v) keys its output like the other class", label, kind, sorted)
		}
		classes[sorted] = key
	}
	for o := range orders {
		in := input("l", o)
		classes := map[bool]props.Key{}
		for _, k := range GroupKinds() {
			if k.Admits(in, c("l")) {
				check(classes, "group over "+orders[o], k, k.SortsOutput(in, c("l")), k.OutputProps(in, c("l")).Key())
			}
		}
	}
	for lo := range orders {
		for ro := range orders {
			left, right := input("l", lo), input("r", ro)
			for _, swapped := range []bool{false, true} {
				build, probe, bcol, pcol := left, right, "l", "r"
				if swapped {
					build, probe, bcol, pcol = right, left, "r", "l"
				}
				label := fmt.Sprintf("join %s ⋈ %s (swapped %v)", orders[lo], orders[ro], swapped)
				classes := map[bool]props.Key{}
				for _, k := range JoinKinds() {
					if k.Admits(build, probe, c(bcol), c(pcol)) {
						check(classes, label, k, k.SortsOutput(probe, c(pcol)), k.OutputProps(build, probe, c(bcol), c(pcol)).Key())
					}
				}
			}
		}
	}
}

// TestJoinOutputPropsCommutedCorrelations: a join and its commuted twin over
// inputs that both carry a correlation know the same things about their
// output, so they must print, fingerprint and key alike — one DP slot, not
// two — whichever input's correlations come first; a correlation both carry
// is kept once.
func TestJoinOutputPropsCommutedCorrelations(t *testing.T) {
	lrel := storage.MustNewRelation("L", upTo("ID", 100), upTo("A", 100), upTo("X", 100), upTo("Y", 100))
	rrel := storage.MustNewRelation("R", upTo("K", 100), upTo("B", 100), upTo("X", 100), upTo("Y", 100))
	lrel.DeclareCorr("ID", "A")
	lrel.DeclareCorr("X", "Y")
	rrel.DeclareCorr("K", "B")
	rrel.DeclareCorr("X", "Y")
	sets, c := scanSets(true, lrel, rrel)
	left, right := sets[0].DropOrder(), sets[1].DropOrder()
	left.Sorted, right.Sorted = props.ColsOf(c("ID")), props.ColsOf(c("K"))
	for _, k := range JoinKinds() {
		out := k.OutputProps(left, right, c("ID"), c("K"))
		twin := k.OutputProps(right, left, c("K"), c("ID"))
		const want = "corr{A~ID} corr{B~K} corr{Y~X}"
		if !strings.HasSuffix(out.String(), want) || !strings.HasSuffix(twin.String(), want) {
			t.Fatalf("%s: correlations %s, commuted %s, want %s both ways", k, out, twin, want)
		}
		if out.Key() != twin.Key() || out.Fingerprint() != twin.Fingerprint() {
			t.Fatalf("%s: the commuted join keys differently:\n%s\n%s", k, out.Fingerprint(), twin.Fingerprint())
		}
	}
}

func TestBSJAllSortKinds(t *testing.T) {
	left := datagen.GroupingKeys(4, 300, 40, datagen.Quadrant{Sorted: false, Dense: false})
	right := datagen.GroupingKeys(5, 300, 40, datagen.Quadrant{Sorted: false, Dense: false})
	ref := refJoin(left, right)
	for _, sk := range sortx.Kinds() {
		res, err := Join(BSJ, left, right, props.Domain{}, JoinOptions{Sort: sk})
		if err != nil {
			t.Fatalf("%s: %v", sk, err)
		}
		checkJoin(t, "BSJ/"+sk.String(), res, ref, left, right)
	}
}
