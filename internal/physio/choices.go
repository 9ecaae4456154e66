package physio

import (
	"fmt"
	"strconv"
	"sync"

	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/sortx"
)

// GroupChoice is one fully resolved way to implement a grouping operator: an
// algorithm family plus every molecule-level decision inside it. It is plain
// data: what it requires of its input (Kind.Admits, Kind.Requirements) and
// the granule tree that explains it (Tree) are functions of the choice and
// the site's key column, worked out when somebody asks.
type GroupChoice struct {
	Kind physical.GroupKind
	Opt  physical.GroupOptions
}

// Tree returns the granule tree of the choice applied to keyCol.
func (c GroupChoice) Tree(keyCol string) *Granule { return GroupTree(c.Kind, c.Opt, keyCol) }

// Label returns e.g. "HG(chained,murmur3fin)" or "SPHG"; parallel variants
// carry a ",parallel=N" suffix so EXPLAIN output names the full molecule set.
func (c GroupChoice) Label() string {
	switch c.Kind {
	case physical.HG:
		if c.Opt.Parallel > 1 {
			return fmt.Sprintf("HG(chained,%s,parallel=%d)", c.Opt.Hash, c.Opt.Parallel)
		}
		return fmt.Sprintf("HG(chained,%s)", c.Opt.Hash)
	case physical.SOG:
		if c.Opt.Parallel > 1 {
			return fmt.Sprintf("SOG(%s,parallel=%d)", c.Opt.Sort, c.Opt.Parallel)
		}
		return fmt.Sprintf("SOG(%s)", c.Opt.Sort)
	case physical.SPHG:
		if c.Opt.Parallel > 1 {
			return fmt.Sprintf("SPHG(parallel=%d)", c.Opt.Parallel)
		}
		return "SPHG"
	default:
		return c.Kind.String()
	}
}

// JoinChoice is one fully resolved way to implement an equi-join; plain data
// like GroupChoice. A commuted join is the same choice asked (Kind.Admits,
// Tree) with the inputs exchanged.
type JoinChoice struct {
	Kind physical.JoinKind
	Opt  physical.JoinOptions
}

// Tree returns the granule tree of the choice building on buildCol and
// probing with probeCol.
func (c JoinChoice) Tree(buildCol, probeCol string) *Granule {
	return JoinTree(c.Kind, c.Opt, buildCol, probeCol)
}

// Label returns e.g. "HJ(murmur3fin)"; parallel variants carry a
// ",parallel=N" (or "(parallel=N)") suffix.
func (c JoinChoice) Label() string {
	switch c.Kind {
	case physical.HJ:
		if c.Opt.Parallel > 1 {
			return fmt.Sprintf("HJ(%s,parallel=%d)", c.Opt.Hash, c.Opt.Parallel)
		}
		return fmt.Sprintf("HJ(%s)", c.Opt.Hash)
	case physical.SOJ:
		if c.Opt.Parallel > 1 {
			return fmt.Sprintf("SOJ(%s,parallel=%d)", c.Opt.Sort, c.Opt.Parallel)
		}
		return fmt.Sprintf("SOJ(%s)", c.Opt.Sort)
	case physical.SPHJ:
		if c.Opt.Parallel > 1 {
			return fmt.Sprintf("SPHJ(parallel=%d)", c.Opt.Parallel)
		}
		return c.Kind.String()
	case physical.BSJ:
		return fmt.Sprintf("BSJ(%s)", c.Opt.Sort)
	default:
		return c.Kind.String()
	}
}

// The choices of a site depend on the enumeration depth and the degree of
// parallelism on offer and on nothing else, so each list is built once and
// shared read-only by every optimiser run: the serial lists up front, the
// deep lists of a DOP above 1 when that DOP is first asked for.
var (
	shallowGroups = groupChoices(Shallow, 1)
	deepGroups    = groupChoices(Deep, 1)
	shallowJoins  = joinChoices(Shallow, 1)
	deepJoins     = joinChoices(Deep, 1)
	parallelLists sync.Map // dop → *choiceLists
)

type choiceLists struct {
	groups []GroupChoice
	joins  []JoinChoice
}

// parallel returns the deep lists of dop > 1.
func parallel(dop int) *choiceLists {
	l, ok := parallelLists.Load(dop)
	if !ok {
		l, _ = parallelLists.LoadOrStore(dop, &choiceLists{groupChoices(Deep, dop), joinChoices(Deep, dop)})
	}
	return l.(*choiceLists)
}

// GroupChoices enumerates the implementations of a grouping at the given
// depth. Shallow yields one choice per family with the paper's textbook
// defaults (the "translate to hash-based grouping" arrow of Figure 3); Deep
// unnests the molecule space. dop > 1 additionally offers parallel variants
// of every family whose kernel is DOP-invariant (SPHG/HG/SOG), making
// the degree of parallelism one more molecule dimension the optimiser prices
// rather than a runtime default. The list may be shared: callers filter it
// into a new slice, never modify it. A choice is asked about its key column
// when it is used, so the list does not depend on one.
func GroupChoices(depth Depth, dop int) []GroupChoice {
	switch {
	case depth == Shallow:
		return shallowGroups
	case dop <= 1:
		return deepGroups
	}
	return parallel(dop).groups
}

func groupChoices(depth Depth, dop int) []GroupChoice {
	out := make([]GroupChoice, 0, 32)
	add := func(kind physical.GroupKind, opt physical.GroupOptions) {
		out = append(out, GroupChoice{Kind: kind, Opt: opt})
	}
	// Order-based choices come first: on cost ties the optimiser keeps the
	// earlier alternative, and the paper's sorted/sorted cell is won by the
	// order-based implementations. Serial variants likewise precede their
	// parallel twins, so a model that cannot see parallelism (Paper) keeps
	// its plans unchanged on ties.
	if depth == Shallow {
		add(physical.OG, physical.GroupOptions{})
		add(physical.SPHG, physical.GroupOptions{}) // serial load
		add(physical.HG, physical.GroupOptions{})   // chained + murmur3fin
		add(physical.SOG, physical.GroupOptions{})  // radix
		add(physical.BSG, physical.GroupOptions{})
		return out[:len(out):len(out)]
	}
	add(physical.OG, physical.GroupOptions{})
	add(physical.SPHG, physical.GroupOptions{})
	for _, fn := range hashtable.Funcs() {
		add(physical.HG, physical.GroupOptions{Hash: fn})
	}
	for _, sk := range sortx.Kinds() {
		add(physical.SOG, physical.GroupOptions{Sort: sk})
	}
	add(physical.BSG, physical.GroupOptions{})
	if dop > 1 {
		add(physical.SPHG, physical.GroupOptions{Parallel: dop})
		for _, fn := range hashtable.Funcs() {
			add(physical.HG, physical.GroupOptions{Hash: fn, Parallel: dop})
		}
		add(physical.SOG, physical.GroupOptions{Sort: sortx.Radix, Parallel: dop})
	}
	return out[:len(out):len(out)]
}

// JoinChoices enumerates the implementations of an equi-join at the given
// depth. dop > 1 additionally offers parallel variants of the DOP-invariant
// join kernels (chunked-probe HJ and SPHJ, parallel-sort SOJ),
// serial twins first so ties stay serial. As with GroupChoices the list may be
// shared and does not depend on the key columns: the commuted join reads the
// same list with the inputs exchanged.
func JoinChoices(depth Depth, dop int) []JoinChoice {
	switch {
	case depth == Shallow:
		return shallowJoins
	case dop <= 1:
		return deepJoins
	}
	return parallel(dop).joins
}

func joinChoices(depth Depth, dop int) []JoinChoice {
	out := make([]JoinChoice, 0, 24)
	add := func(kind physical.JoinKind, opt physical.JoinOptions) {
		out = append(out, JoinChoice{Kind: kind, Opt: opt})
	}
	// Order-based first: ties go to the less physical alternative.
	if depth == Shallow {
		add(physical.OJ, physical.JoinOptions{})
		add(physical.SPHJ, physical.JoinOptions{})
		add(physical.HJ, physical.JoinOptions{})
		add(physical.SOJ, physical.JoinOptions{})
		add(physical.BSJ, physical.JoinOptions{})
		return out[:len(out):len(out)]
	}
	add(physical.OJ, physical.JoinOptions{})
	add(physical.SPHJ, physical.JoinOptions{})
	for _, fn := range hashtable.Funcs() {
		add(physical.HJ, physical.JoinOptions{Hash: fn})
	}
	for _, sk := range sortx.Kinds() {
		add(physical.SOJ, physical.JoinOptions{Sort: sk})
	}
	for _, sk := range sortx.Kinds() {
		add(physical.BSJ, physical.JoinOptions{Sort: sk})
	}
	if dop > 1 {
		add(physical.SPHJ, physical.JoinOptions{Parallel: dop})
		for _, fn := range hashtable.Funcs() {
			add(physical.HJ, physical.JoinOptions{Hash: fn, Parallel: dop})
		}
		add(physical.SOJ, physical.JoinOptions{Sort: sortx.Radix, Parallel: dop})
	}
	return out[:len(out):len(out)]
}

// GroupTree builds the granule tree for one grouping implementation — the
// result of fully unnesting the logical Γ along one path of Figure 3.
func GroupTree(kind physical.GroupKind, opt physical.GroupOptions, keyCol string) *Granule {
	agg := New("aggregate", LevelMacro, "running COUNT/SUM/MIN/MAX",
		New("update", LevelMolecule, "branch-lean accumulate"))
	switch kind {
	case physical.HG:
		loopDetail := "serial insert"
		if opt.Parallel > 1 {
			loopDetail = "parallel insert (" + strconv.Itoa(opt.Parallel) + " workers, merged partials)"
		}
		return New("Γ", LevelOrganelle, "hash-based grouping on "+keyCol,
			New("partitionBy", LevelMacro, "hash table",
				New("index", LevelMacro, "dynamic hash table",
					New("scheme", LevelMolecule, "chained"),
					New("hashfunc", LevelMolecule, opt.Hash.String())),
				New("loop", LevelMolecule, loopDetail)),
			agg)
	case physical.SPHG:
		loopDetail := "serial load"
		if opt.Parallel > 1 {
			loopDetail = "parallel load (" + strconv.Itoa(opt.Parallel) + " workers)"
		}
		return New("Γ", LevelOrganelle, "SPH-based grouping on "+keyCol,
			New("partitionBy", LevelMacro, "static perfect hash",
				New("index", LevelMacro, "dense array, key-lo addressing",
					New("hashfunc", LevelMolecule, "identity (minimal perfect)")),
				New("loop", LevelMolecule, loopDetail)),
			agg)
	case physical.OG:
		return New("Γ", LevelOrganelle, "order-based grouping on "+keyCol,
			New("partitionBy", LevelMacro, "run detection on grouped input",
				New("scan", LevelMolecule, "single sequential pass")),
			agg)
	case physical.SOG:
		sortDetail := "key/payload sort"
		if opt.Parallel > 1 {
			sortDetail = "parallel sorted runs + merge (" + strconv.Itoa(opt.Parallel) + " workers)"
		}
		return New("Γ", LevelOrganelle, "sort & order-based grouping on "+keyCol,
			New("sort", LevelMacro, sortDetail,
				New("algorithm", LevelMolecule, opt.Sort.String())),
			New("partitionBy", LevelMacro, "run detection on sorted copy",
				New("scan", LevelMolecule, "single sequential pass")),
			agg)
	case physical.BSG:
		return New("Γ", LevelOrganelle, "binary-search grouping on "+keyCol,
			New("partitionBy", LevelMacro, "sorted array directory",
				New("probe", LevelMolecule, "binary search"),
				New("insert", LevelMolecule, "shift into place")),
			agg)
	default:
		return New("Γ", LevelCell, "logical grouping on "+keyCol)
	}
}

// JoinTree builds the granule tree for one join implementation. A join is a
// co-group with two inputs (paper footnote 1): build/probe phases play the
// partitionBy role.
func JoinTree(kind physical.JoinKind, opt physical.JoinOptions, lcol, rcol string) *Granule {
	on := lcol + "=" + rcol
	emit := New("emit", LevelMacro, "pair production",
		New("gather", LevelMolecule, "columnar row gather"))
	switch kind {
	case physical.HJ:
		probe := "serial probe"
		if opt.Parallel > 1 {
			probe = "parallel probe (" + strconv.Itoa(opt.Parallel) + " workers)"
		}
		return New("⋈", LevelOrganelle, "hash join on "+on,
			New("build", LevelMacro, "chained multimap",
				New("hashfunc", LevelMolecule, opt.Hash.String())),
			New("probe", LevelMacro, "per-row lookup",
				New("loop", LevelMolecule, probe)),
			emit)
	case physical.SPHJ:
		probe := "serial probe"
		if opt.Parallel > 1 {
			probe = "parallel probe (" + strconv.Itoa(opt.Parallel) + " workers)"
		}
		return New("⋈", LevelOrganelle, "SPH join on "+on,
			New("build", LevelMacro, "dense array of chain heads",
				New("hashfunc", LevelMolecule, "identity (minimal perfect)")),
			New("probe", LevelMacro, "direct array addressing",
				New("loop", LevelMolecule, probe)),
			emit)
	case physical.OJ:
		return New("⋈", LevelOrganelle, "merge join on "+on,
			New("merge", LevelMacro, "two sorted cursors",
				New("dupblocks", LevelMolecule, "duplicate block cross product")),
			emit)
	case physical.SOJ:
		sortDetail := "both inputs"
		if opt.Parallel > 1 {
			sortDetail = "both inputs, parallel runs + merge (" + strconv.Itoa(opt.Parallel) + " workers)"
		}
		return New("⋈", LevelOrganelle, "sort-merge join on "+on,
			New("sort", LevelMacro, sortDetail,
				New("algorithm", LevelMolecule, opt.Sort.String())),
			New("merge", LevelMacro, "two sorted cursors",
				New("dupblocks", LevelMolecule, "duplicate block cross product")),
			emit)
	case physical.BSJ:
		return New("⋈", LevelOrganelle, "binary-search join on "+on,
			New("build", LevelMacro, "sorted directory over left",
				New("algorithm", LevelMolecule, opt.Sort.String())),
			New("probe", LevelMacro, "per-row binary search",
				New("loop", LevelMolecule, "serial probe")),
			emit)
	default:
		return New("⋈", LevelCell, "logical join on "+on)
	}
}

// UnnestJoinSteps returns the Figure 3-style refinement chain for a join
// choice (a join is a co-group with two inputs, so the same unnesting
// applies): logical ⋈ → build/probe form → index family fixed → fully
// resolved deep plan. lcol and rcol are the logical join's columns; the last
// step names the join the way its tree does, build key first, so swapped says
// whether the choice builds on rcol.
func UnnestJoinSteps(choice JoinChoice, lcol, rcol string, swapped bool) []*Granule {
	on := lcol + "=" + rcol
	a := New("⋈", LevelCell, "logical join on "+on)
	b := New("⋈", LevelCell, "join on "+on,
		New("build", LevelOrganelle, "index one input"),
		New("probe", LevelOrganelle, "stream the other input"))
	var family string
	switch choice.Kind {
	case physical.HJ:
		family = "dynamic hash table"
	case physical.SPHJ:
		family = "static perfect hash"
	case physical.OJ:
		family = "two sorted cursors"
	case physical.SOJ:
		family = "sort both, then merge"
	case physical.BSJ:
		family = "sorted directory"
	}
	c := New("⋈", LevelOrganelle, "join on "+on,
		New("build", LevelMacro, family),
		New("probe", LevelMacro, "per-row lookup"))
	d := choice.Tree(lcol, rcol)
	if swapped {
		d = choice.Tree(rcol, lcol)
	}
	return []*Granule{a, b, c, d}
}

// UnnestSteps returns the Figure 3 refinement chain for a grouping choice:
// (a) the logical operator, (b) the physiological partition/aggregate form,
// (c) an intermediate with the index family fixed, (d) the fully resolved
// deep plan. Each step strictly increases physicality.
func UnnestSteps(choice GroupChoice, keyCol string) []*Granule {
	a := New("Γ", LevelCell, "logical grouping on "+keyCol)
	b := New("Γ", LevelCell, "grouping on "+keyCol,
		New("partitionBy", LevelOrganelle, "bundle of independent producers"),
		New("aggregate", LevelOrganelle, "per-producer aggregation"))
	var family string
	switch choice.Kind {
	case physical.HG:
		family = "dynamic hash table"
	case physical.SPHG:
		family = "static perfect hash"
	case physical.OG:
		family = "run detection"
	case physical.SOG:
		family = "sort, then run detection"
	case physical.BSG:
		family = "sorted array directory"
	}
	c := New("Γ", LevelOrganelle, "grouping on "+keyCol,
		New("partitionBy", LevelMacro, family),
		New("aggregate", LevelMacro, "running aggregates"))
	return []*Granule{a, b, c, choice.Tree(keyCol)}
}
