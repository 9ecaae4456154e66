package physical

import (
	"fmt"
	"sync"

	"dqo/internal/faultinject"
	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/qerr"
	"dqo/internal/sortx"
	"dqo/internal/storage"
)

// JoinKind identifies one of the five join algorithm families — "the
// algorithmic counterparts of our grouping implementations" (Section 4.3,
// Table 2). A join is a co-group with two inputs (paper, footnote 1), so the
// same five index/order strategies apply.
type JoinKind uint8

// Join algorithm kinds.
const (
	// HJ: hash join. Build a hash multimap on the left, probe with the
	// right.
	HJ JoinKind = iota
	// SPHJ: static perfect hash join. The left keys index a dense array
	// directly; requires a known dense left key domain.
	SPHJ
	// OJ: order-based (merge) join. Requires both inputs sorted by key.
	OJ
	// SOJ: sort & order-based join. Sorts both inputs, then merges.
	SOJ
	// BSJ: binary-search join. The left side is sorted into a directory;
	// each right key binary-searches it.
	BSJ
	numJoinKinds
)

// String returns the paper's abbreviation.
func (k JoinKind) String() string {
	switch k {
	case HJ:
		return "HJ"
	case SPHJ:
		return "SPHJ"
	case OJ:
		return "OJ"
	case SOJ:
		return "SOJ"
	case BSJ:
		return "BSJ"
	default:
		return fmt.Sprintf("JoinKind(%d)", uint8(k))
	}
}

// JoinKinds lists all join algorithms.
func JoinKinds() []JoinKind { return []JoinKind{HJ, SPHJ, OJ, SOJ, BSJ} }

// Requirements returns the input properties the algorithm needs, for the
// left (build) key column and right (probe) key column.
func (k JoinKind) Requirements(leftCol, rightCol string) (left, right []props.Requirement) {
	switch k {
	case SPHJ:
		return []props.Requirement{{Kind: props.ReqDense, Column: leftCol}}, nil
	case OJ:
		return []props.Requirement{{Kind: props.ReqSorted, Column: leftCol}},
			[]props.Requirement{{Kind: props.ReqSorted, Column: rightCol}}
	default:
		return nil, nil
	}
}

// Admits reports whether inputs with these properties meet
// Requirements(leftCol, rightCol), the columns given as ordinals of the
// inputs' table: the same answer without building the lists, for the
// enumeration loop that asks it of every alternative.
func (k JoinKind) Admits(left, right props.Set, leftCol, rightCol props.Col) bool {
	switch k {
	case SPHJ:
		return left.DenseOn(leftCol)
	case OJ:
		return left.SortedOn(leftCol) && right.SortedOn(rightCol)
	default:
		return true
	}
}

// KeyOrdered reports whether the algorithm emits pairs in key order whatever
// its inputs look like (the order-based family). The others are probe-major:
// their output order is the probe side's.
func (k JoinKind) KeyOrdered() bool { return k == OJ || k == SOJ }

// SortsOutput reports whether the join's output is in key order when the
// right input, probed on rcol, has these properties: always for the
// order-based family, for a probe-major kind when the probe side is sorted on
// its key. OutputProps reads nothing else of the kind, so kinds that agree
// here derive equal output properties from one pair of inputs.
func (k JoinKind) SortsOutput(right props.Set, rcol props.Col) bool {
	return k.KeyOrdered() || right.SortedOn(rcol)
}

// JoinOptions selects the molecule choices inside a join algorithm.
type JoinOptions struct {
	Hash     hashtable.Func // HJ: hash function
	Sort     sortx.Kind     // SOJ/BSJ: sort algorithm
	Parallel int            // HJ/SPHJ/SOJ worker goroutines; <=1 is serial
	Ctl      *govern.Ctl    // cancellation + memory budget; nil is ungoverned
}

// JoinResult holds matching row pairs: for every i, left row LeftIdx[i]
// joins right row RightIdx[i]. SortedByKey reports whether the pairs are
// emitted in ascending key order (true for the order-based family). The
// relation-level joins ask only for the side whose columns they will gather;
// the other array is then nil.
type JoinResult struct {
	LeftIdx     []int32
	RightIdx    []int32
	SortedByKey bool
}

// Len returns the number of result pairs.
func (r *JoinResult) Len() int { return max(len(r.LeftIdx), len(r.RightIdx)) }

// Release hands the row-id arrays back to the scratch pool they came from.
// The caller must hold no reference into them any more: a gather copies, so
// the relation-level joins release as soon as their output is assembled. A
// result nobody releases is simply collected.
func (r *JoinResult) Release() {
	storage.PutInt32s(r.LeftIdx)
	storage.PutInt32s(r.RightIdx)
	r.LeftIdx, r.RightIdx = nil, nil
}

// pairSides says which row-id arrays of a JoinResult a caller wants.
type pairSides uint8

const (
	leftRows pairSides = 1 << iota
	rightRows
	bothRows = leftRows | rightRows
)

// swap exchanges the roles of the two sides.
func (s pairSides) swap() pairSides { return s>>1 | s<<1&bothRows }

// Join computes the inner equi-join of two key columns using the chosen
// algorithm. leftDom describes the left (build) key domain.
func Join(kind JoinKind, left, right []uint32, leftDom props.Domain, opt JoinOptions) (*JoinResult, error) {
	return joinSides(kind, left, right, leftDom, opt, bothRows)
}

// joinSides is Join producing only the row-id arrays of sides.
func joinSides(kind JoinKind, left, right []uint32, leftDom props.Domain, opt JoinOptions, sides pairSides) (*JoinResult, error) {
	switch kind {
	case HJ, SPHJ:
		t, err := buildJoinTable(kind, left, leftDom, opt)
		if err != nil {
			return nil, err
		}
		defer t.Release()
		return probeIndex(t.idx, right, opt.Parallel, &t.rv, sides)
	case OJ:
		return joinMerge(left, right, opt.Ctl, sides)
	case SOJ:
		return joinSortMerge(left, right, opt, sides)
	case BSJ:
		res, err := joinBinarySearch(left, right, opt, sides)
		if err != nil {
			return nil, err
		}
		res.SortedByKey = sortx.IsSortedUint32(right)
		return res, nil
	default:
		return nil, fmt.Errorf("physical: unknown join kind %d", uint8(kind))
	}
}

// RowIndex is the built side of a probe-major join (HJ's multimap, SPHJ's
// directory, BSJ's sorted directory, a prebuilt AV index), probed a batch of
// keys at a time. CountBatch returns the total number of build rows holding
// keys[0], keys[1], …; FillBatch writes the pairs — per key, in order, its
// build rows in the index's emission order to build and the probe row
// first+i to probe — from index 0 of slices that have room for
// CountBatch(keys), and returns how many there are. A nil build or probe is
// a side the caller does not want: it is not written. The slices are the
// window the caller hands over: FillBatch may write scratch anywhere inside
// it, past the pairs it returns, and never outside it. A probe that runs in
// chunks therefore ends each chunk's window at that chunk's own end. Keys
// with more pairs than the window holds are a fault of the index (its count
// and its fill disagree): FillBatch then panics on the bounds or returns the
// larger number, and the probe reports a chunk whose fills do not end exactly
// at the chunk's end as an error.
type RowIndex interface {
	CountBatch(keys []uint32) int
	FillBatch(keys []uint32, first int32, build, probe []int32) int
}

// keyCounter is the fast path a RowIndex may offer a probe that keeps only
// its own side's row ids: CountEach is CountBatch that also writes the number
// of build rows holding keys[i] to counts[i]. Those counts are all such a
// probe needs, so it expands them and does not touch the index again.
type keyCounter interface {
	CountEach(keys []uint32, counts []int32) int
}

// rowCounter is what a RowIndex may offer a join that keeps only its build
// side's rows: CountRows sets counts[r], for every build row r, to how many
// of keys hold r's key, polling stop.
type rowCounter interface {
	CountRows(keys []uint32, counts []int32, stop func() error) error
}

// probePairs probes idx with every key of probe and returns the matching
// pairs probe-major: probe rows ascending, and per probe row the build rows
// in idx's emission order. It touches the probe side twice and allocates
// once: a first pass counts the matches, the pair arrays are then reserved
// (through rv) and allocated at their exact size, and a second pass fills
// them. With workers > 1 both passes run over contiguous probe chunks that
// write disjoint windows of the same arrays, so the result is identical at
// any worker count. Cancellation is polled every checkEvery rows of both
// passes. The arrays come from the storage scratch pool (JoinResult.Release
// returns them), and only those of sides — the build rows are the left — are
// taken at all; the reservation covers both either way, so what a join may
// hold does not depend on the columns its consumer reads.
//
// When only the probe rows are wanted and idx can say how many build rows
// hold each key (keyCounter), the first pass keeps those counts — 4 B per
// probe row of pooled scratch, like a selection vector not charged — and the
// second pass repeats each probe row that often: the index is touched once.
func probePairs(idx RowIndex, probe []uint32, workers int, rv *resv, sides pairSides) (*JoinResult, error) {
	if len(probe) < minParallelChunk || workers < 1 {
		workers = 1
	}
	var counts []int32
	kc, _ := idx.(keyCounter)
	if kc != nil && sides == rightRows {
		counts = storage.GetInt32s(len(probe))[:len(probe)]
		defer storage.PutInt32s(counts)
	}
	chunk := max((len(probe)+workers-1)/workers, 1)
	nChunks := max((len(probe)+chunk-1)/chunk, 1) // an empty probe side is one empty chunk
	offs := make([]int, nChunks+1)
	err := forChunks(len(probe), chunk, func(c, lo, hi int) error {
		for ; lo < hi; lo += checkEvery {
			if err := rv.ctl.Err(); err != nil {
				return err
			}
			to := min(lo+checkEvery, hi)
			if counts != nil {
				offs[c+1] += kc.CountEach(probe[lo:to], counts[lo:to])
			} else {
				offs[c+1] += idx.CountBatch(probe[lo:to])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for c := 0; c < nChunks; c++ {
		offs[c+1] += offs[c]
	}
	total := offs[nChunks]
	if err := rv.add(int64(total) * 8); err != nil {
		return nil, err
	}
	res := &JoinResult{}
	if sides&leftRows != 0 {
		res.LeftIdx = storage.GetInt32s(total)[:total]
	}
	if sides&rightRows != 0 {
		res.RightIdx = storage.GetInt32s(total)[:total]
	}
	err = forChunks(len(probe), chunk, func(c, lo, hi int) error {
		// Chunk c's pairs end at offs[c+1]. The fill kernels write scratch
		// past their last pair, so a window that ran on into the next chunk's
		// pairs would let one worker overwrite another's.
		o, end := offs[c], offs[c+1]
		for ; lo < hi && o <= end; lo += checkEvery {
			if err := rv.ctl.Err(); err != nil {
				return err
			}
			to := min(lo+checkEvery, hi)
			if counts != nil {
				o += repeatRows(counts[lo:to], int32(lo), res.RightIdx[o:end])
			} else {
				o += idx.FillBatch(probe[lo:to], int32(lo), window(res.LeftIdx, o, end), window(res.RightIdx, o, end))
			}
		}
		if o != end {
			return fmt.Errorf("physical: probe chunk %d: the count pass found %d pairs, the fill pass reached %d", c, end-offs[c], o-offs[c])
		}
		return nil
	})
	if err != nil {
		res.Release()
		return nil, err
	}
	return res, nil
}

// window is xs[o:end], or nil for a side that was not taken.
func window(xs []int32, o, end int) []int32 {
	if xs == nil {
		return nil
	}
	return xs[o:end]
}

// repeatRows writes row first+i counts[i] times, for every i in order, from
// the front of dst, and returns how many it wrote. Most counts are 0 or 1, so
// each row is written at the cursor whatever its count, and the cursor
// advances by the count: no branch asks whether a probe row matched. Past the
// rows it returns, repeatRows may leave scratch anywhere in dst, and never
// outside it; counts that add up to more than dst holds are written as far
// as they fit, and the full sum is returned (see RowIndex).
func repeatRows(counts []int32, first int32, dst []int32) int {
	n := 0
	for i, c := range counts {
		if n >= len(dst) { // dst is full: the counts left should all be 0
			for _, left := range counts[i:] {
				n += int(left)
			}
			return n
		}
		r := first + int32(i)
		dst[n] = r
		for j, m := 1, min(int(c), len(dst)-n); j < m; j++ {
			dst[n+j] = r
		}
		n += int(c)
	}
	return n
}

// matchCounts returns the number of matches of every row of one side of the
// join of build (indexed by idx) and probe: of each probe row when keepProbe,
// through keyCounter, over contiguous chunks of probe at workers goroutines;
// otherwise of each build row, through rowCounter, serially. The counts are
// pooled scratch for the caller to put back, 4 B per row and not charged,
// like a selection vector. ok is false when idx offers neither method.
// Cancellation is polled every checkEvery probe rows (the index polls it
// itself when it counts per build row).
func matchCounts(idx RowIndex, build, probe []uint32, keepProbe bool, workers int, ctl *govern.Ctl) (counts []int32, ok bool, err error) {
	if keepProbe {
		kc, ok := idx.(keyCounter)
		if !ok {
			return nil, false, nil
		}
		if len(probe) < minParallelChunk || workers < 1 {
			workers = 1
		}
		counts = storage.GetInt32s(len(probe))[:len(probe)]
		err = forChunks(len(probe), max((len(probe)+workers-1)/workers, 1), func(_, lo, hi int) error {
			for ; lo < hi; lo += checkEvery {
				if err := ctl.Err(); err != nil {
					return err
				}
				to := min(lo+checkEvery, hi)
				kc.CountEach(probe[lo:to], counts[lo:to])
			}
			return nil
		})
	} else {
		rc, ok := idx.(rowCounter)
		if !ok {
			return nil, false, nil
		}
		var stop func() error // nil when ungoverned: the method value would allocate
		if ctl != nil {
			stop = ctl.Err
		}
		counts = storage.GetInt32s(len(build))[:len(build)]
		err = rc.CountRows(probe, counts, stop)
	}
	if err != nil {
		storage.PutInt32s(counts)
		return nil, true, err
	}
	return counts, true, nil
}

// probeIndex is the probe step of the probe-major joins: the pairs of probing
// idx with every probe key, in key order exactly when the probe keys are.
func probeIndex(idx RowIndex, probe []uint32, workers int, rv *resv, sides pairSides) (*JoinResult, error) {
	res, err := probePairs(idx, probe, workers, rv, sides)
	if err != nil {
		return nil, err
	}
	res.SortedByKey = sortx.IsSortedUint32(probe)
	return res, nil
}

// forChunks runs fn over the contiguous chunks [c*chunk, (c+1)*chunk) of
// [0, n): inline when there is at most one, otherwise one goroutine per
// chunk, with a panic in any of them re-surfacing as the returned error. The
// lowest-numbered chunk's error wins.
func forChunks(n, chunk int, fn func(c, lo, hi int) error) error {
	if n <= chunk {
		return fn(0, 0, n)
	}
	nChunks := (n + chunk - 1) / chunk
	errs := make([]error, nChunks)
	var box qerr.PanicBox
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer box.Guard()
			errs[c] = fn(c, c*chunk, min((c+1)*chunk, n))
		}(c)
	}
	wg.Wait()
	if err := box.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// JoinTable is the built side of an HJ (a hashtable.Multi) or of an SPHJ (a
// hashtable.SPH) between the join's two steps: BuildJoinTable is the
// build, probing Index() the probe. It holds the table's reservation against
// the query budget, so whoever builds one releases it — and with it hands the
// table's arrays back to the scratch pool, unless Keep was called.
type JoinTable struct {
	idx interface {
		RowIndex
		MemBytes() int64
		Release()
	}
	keys []uint32
	rv   resv
	kept bool
}

// buildJoinTable builds the table of kind (HJ or SPHJ) over keys. The table
// is reserved before it is built. dom describes the key domain; SPHJ needs it
// known and dense: the keys, offset by the domain minimum, then index a
// directory directly and a probe is a single array access.
func buildJoinTable(kind JoinKind, keys []uint32, dom props.Domain, opt JoinOptions) (*JoinTable, error) {
	if err := faultinject.Fire(faultinject.PointPhysicalBuild); err != nil {
		return nil, err
	}
	t := &JoinTable{keys: keys, rv: resv{ctl: opt.Ctl}}
	if kind == HJ {
		if err := t.rv.add(hashtable.MultiBytes(len(keys))); err != nil {
			return nil, err
		}
		m, err := hashtable.BuildMulti(opt.Hash, keys, opt.Ctl.Err)
		if err != nil {
			t.rv.release()
			return nil, err
		}
		t.idx = m
		return t, nil
	}
	lo64, hi64, ok := dom.DenseDomain()
	if !ok {
		return nil, fmt.Errorf("physical: SPHJ requires a known dense left key domain, have %+v", dom)
	}
	width := hi64 - lo64 + 1
	if width > maxSPHWidth {
		return nil, fmt.Errorf("physical: SPHJ domain width %d exceeds limit %d", width, maxSPHWidth)
	}
	if err := t.rv.add(hashtable.SPHBytes(int(width), len(keys))); err != nil {
		return nil, err
	}
	d, err := hashtable.BuildSPH(keys, uint32(lo64), int(width), opt.Ctl.Err)
	if err != nil {
		t.rv.release()
		return nil, err
	}
	t.idx = d
	return t, nil
}

// Index returns the built table, for the probe step.
func (t *JoinTable) Index() RowIndex { return t.idx }

// Keys returns the key column the table was built over.
func (t *JoinTable) Keys() []uint32 { return t.keys }

// Bytes returns the table's heap footprint.
func (t *JoinTable) Bytes() int64 { return t.idx.MemBytes() }

// Keep gives the table away: somebody else holds Index() from now on, so
// Release returns the reservation to the query's budget and leaves the
// arrays alone.
func (t *JoinTable) Keep() { t.kept = true }

// Release ends the builder's hold on the table: no probe may be running.
func (t *JoinTable) Release() {
	t.rv.release()
	if !t.kept && t.idx != nil {
		t.idx.Release()
	}
	t.idx = nil
}

// joinMerge is OJ: classic sort-merge join over two sorted inputs, with full
// duplicate-block handling. Fails fast if either input is unsorted.
func joinMerge(left, right []uint32, ctl *govern.Ctl, sides pairSides) (*JoinResult, error) {
	if !sortx.IsSortedUint32(left) {
		return nil, fmt.Errorf("physical: OJ requires sorted left input")
	}
	if !sortx.IsSortedUint32(right) {
		return nil, fmt.Errorf("physical: OJ requires sorted right input")
	}
	rv := resv{ctl: ctl}
	defer rv.release()
	res := &JoinResult{SortedByKey: true}
	emitted := 0
	err := mergePairsErr(left, right, func(li, ri int32) error {
		if emitted%checkEvery == 0 {
			if err := ctl.Err(); err != nil {
				return err
			}
			if err := rv.charge(int64(cap(res.LeftIdx)+cap(res.RightIdx)) * 4); err != nil {
				return err
			}
		}
		emitted++
		if sides&leftRows != 0 {
			res.LeftIdx = append(res.LeftIdx, li)
		}
		if sides&rightRows != 0 {
			res.RightIdx = append(res.RightIdx, ri)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// mergePairsErr emits all (leftRow, rightRow) matches of two sorted key
// arrays; a non-nil error from emit aborts the merge.
func mergePairsErr(left, right []uint32, emit func(li, ri int32) error) error {
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		switch {
		case left[i] < right[j]:
			i++
		case left[i] > right[j]:
			j++
		default:
			k := left[i]
			iEnd := i
			for iEnd < len(left) && left[iEnd] == k {
				iEnd++
			}
			jEnd := j
			for jEnd < len(right) && right[jEnd] == k {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					if err := emit(int32(a), int32(b)); err != nil {
						return err
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return nil
}

// joinSortMerge is SOJ: argsort both sides, merge the sorted views, and map
// row indexes back through the permutations. With opt.Parallel > 1 the two
// argsorts run as parallel stable runs + merges (identical permutations to
// the serial sorts); the merge itself stays serial.
func joinSortMerge(left, right []uint32, opt JoinOptions, sides pairSides) (*JoinResult, error) {
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	// Permutations plus sorted copies: 8 bytes per row on each side (doubled
	// for the parallel merge-pass swap buffers).
	perRow := int64(8)
	if opt.Parallel > 1 {
		perRow += 4
	}
	if err := rv.add(perRow * int64(len(left)+len(right))); err != nil {
		return nil, err
	}
	var lperm, rperm []int32
	var err error
	if opt.Parallel > 1 {
		stop := opt.Ctl.Err
		if lperm, err = sortx.ParallelArgSortUint32Ctl(opt.Sort, left, opt.Parallel, stop); err != nil {
			return nil, err
		}
		if rperm, err = sortx.ParallelArgSortUint32Ctl(opt.Sort, right, opt.Parallel, stop); err != nil {
			return nil, err
		}
	} else {
		if err := opt.Ctl.Err(); err != nil {
			return nil, err
		}
		lperm = sortx.ArgSortUint32(opt.Sort, left)
		rperm = sortx.ArgSortUint32(opt.Sort, right)
	}
	if err := opt.Ctl.Err(); err != nil {
		return nil, err
	}
	lsorted := make([]uint32, len(left))
	for i, p := range lperm {
		lsorted[i] = left[p]
	}
	rsorted := make([]uint32, len(right))
	for i, p := range rperm {
		rsorted[i] = right[p]
	}
	base := rv.held
	res := &JoinResult{SortedByKey: true}
	emitted := 0
	err = mergePairsErr(lsorted, rsorted, func(li, ri int32) error {
		if emitted%checkEvery == 0 {
			if err := opt.Ctl.Err(); err != nil {
				return err
			}
			if err := rv.charge(base + int64(cap(res.LeftIdx)+cap(res.RightIdx))*4); err != nil {
				return err
			}
		}
		emitted++
		if sides&leftRows != 0 {
			res.LeftIdx = append(res.LeftIdx, lperm[li])
		}
		if sides&rightRows != 0 {
			res.RightIdx = append(res.RightIdx, rperm[ri])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// joinBinarySearch is BSJ: sort a directory over the left side once, then
// binary-search it for every right key, scanning duplicate runs.
func joinBinarySearch(left, right []uint32, opt JoinOptions, sides pairSides) (*JoinResult, error) {
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	// Directory: permutation (4 B/row) plus sorted key copy (4 B/row).
	if err := rv.add(int64(len(left)) * 8); err != nil {
		return nil, err
	}
	if err := opt.Ctl.Err(); err != nil {
		return nil, err
	}
	d := sortedDir{perm: sortx.ArgSortUint32(opt.Sort, left), keys: make([]uint32, len(left))}
	for i, p := range d.perm {
		d.keys[i] = left[p]
	}
	return probePairs(d, right, 1, &rv, sides)
}

// sortedDir is BSJ's build side: the left keys in ascending order and the
// (stable) permutation that sorts them. A key's rows are the run of equal
// keys, emitted in ascending original row order.
type sortedDir struct {
	keys []uint32
	perm []int32
}

// run returns the window of keys equal to key.
func (d sortedDir) run(key uint32) (lo, hi int) {
	lo, found := searchUint32(d.keys, key)
	if !found {
		return lo, lo
	}
	hi = lo + 1
	for hi < len(d.keys) && d.keys[hi] == key {
		hi++
	}
	return lo, hi
}

func (d sortedDir) CountBatch(keys []uint32) int {
	n := 0
	for _, k := range keys {
		lo, hi := d.run(k)
		n += hi - lo
	}
	return n
}

func (d sortedDir) CountEach(keys []uint32, counts []int32) int {
	n := 0
	for i, k := range keys {
		lo, hi := d.run(k)
		counts[i] = int32(hi - lo)
		n += hi - lo
	}
	return n
}

func (d sortedDir) FillBatch(keys []uint32, first int32, build, probe []int32) int {
	n := 0
	for i, k := range keys {
		lo, hi := d.run(k)
		if build != nil {
			copy(build[n:], d.perm[lo:hi])
		}
		if probe != nil {
			for j := n; j < n+hi-lo; j++ {
				probe[j] = first + int32(i)
			}
		}
		n += hi - lo
	}
	return n
}

// OutputProps returns the property set of the join output given both input
// property sets, with left key column lcol and right key column rcol.
//
// Order: the order-based family emits pairs in key order; the probe-major
// family (HJ/SPHJ/BSJ) inherits the probe side's order on the key. Whenever
// the output is in key order, every column correlated with the key (paper
// Section 2.2, "correlated") comes out sorted as well — this is what lets a
// downstream order-based grouping on R.A run after a merge join on R.ID.
//
// Domains: input domains remain valid value-range descriptions of an inner
// join's output (a join never widens a domain; Distinct becomes an upper
// bound, and a Dense flag keeps meaning "SPH-applicable bounded domain" —
// the SPH array tolerates unused slots, it is merely no longer minimal).
//
// Correlations are value-level monotone-function facts, so they survive.
func (k JoinKind) OutputProps(left, right props.Set, lcol, rcol props.Col) props.Set {
	out := left.Union(right)
	// Probe-major emission: probe-side key order drives output order.
	switch {
	case k.SortsOutput(right, rcol):
		out.Sorted = props.ColsOf(lcol, rcol) | left.Dependents(lcol) | right.Dependents(rcol)
	case right.GroupedOn(rcol):
		out.Grouped = props.ColsOf(lcol, rcol)
	}
	return out
}
