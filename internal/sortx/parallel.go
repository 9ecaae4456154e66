package sortx

import (
	"sync"

	"dqo/internal/faultinject"
	"dqo/internal/govern"
)

// Parallel sorts: per-worker sorted runs over contiguous input ranges,
// followed by pairwise merge passes (a binary k-way merge). Every shape is
// DOP-invariant — the output is byte-identical to its serial counterpart for
// any worker count — because the run sorts are stable within their range and
// every merge resolves ties in favour of the earlier (left) run. This lets
// the optimiser treat the degree of parallelism as a pure cost dimension:
// plans with different DOP produce the same relation.
//
// Each entry point takes a stop func() error (may be nil) that is polled
// before each run sort and merge chunk, so cancellation can interrupt the
// k-way merge mid-flight; on stop the input is left in an unspecified
// partially-sorted state. Worker panics are contained and returned as typed
// errors, so the process never dies from a lost goroutine.

// minParallelRun is the smallest per-worker run worth forking a goroutine
// for; below it the serial kernels win outright.
const minParallelRun = 1 << 12

// poll runs stop, tolerating a nil stop function.
func poll(stop func() error) error {
	if stop == nil {
		return nil
	}
	return stop()
}

// shape is one element layout the parallel driver sorts. It holds its data
// twice, as buffer 0 (the caller's, where the runs are sorted) and buffer 1
// (merge scratch, made by grow); each merge round reads one and writes the
// other. Its methods work on whole runs, so the driver makes no call per
// element.
type shape interface {
	// sortRun sorts [lo, hi) of buffer 0 in place, stably.
	sortRun(lo, hi int)
	// grow allocates buffer 1.
	grow()
	// merge merges the sorted runs [lo, mid) and [mid, hi) of buffer from
	// into [lo, hi) of the other buffer, taking ties from the left run.
	merge(from, lo, mid, hi int)
	// carry copies [lo, hi) of buffer from into the other buffer.
	carry(from, lo, hi int)
}

// runs caps workers so that every run holds at least minParallelRun
// elements; at most one run means the serial sort. It also polls stop once,
// so a serial sort is as cancellable as a parallel one before it starts.
func runs(n, workers int, stop func() error) (int, error) {
	return min(workers, n/minParallelRun), poll(stop)
}

// sortParallel sorts the n elements of s as one stable run per worker,
// merged pairwise in rounds. The result is in buffer 0 and equals the serial
// sort's. The entry points run the serial sort themselves when runs says so,
// so that it does not pay for a shape.
func sortParallel(s shape, n, workers int, stop func() error) error {
	chunk := (n + workers - 1) / workers
	var box govern.PanicBox
	var wg sync.WaitGroup
	// round waits for the round's goroutines and reports a panic or a stop.
	round := func() error {
		wg.Wait()
		if err := box.Err(); err != nil {
			return err
		}
		return poll(stop)
	}
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer box.Guard()
			if poll(stop) != nil {
				return // result is discarded on stop; skip the work
			}
			s.sortRun(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	if err := round(); err != nil {
		return err
	}
	s.grow()
	from := 0
	for width := chunk; width < n; width *= 2 {
		if err := faultinject.Fire(faultinject.PointSortxMerge); err != nil {
			return err
		}
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			if mid >= n {
				// Odd run out: carry it to the destination unchanged.
				s.carry(from, lo, n)
				break
			}
			wg.Add(1)
			go func(from, lo, mid, hi int) {
				defer wg.Done()
				defer box.Guard()
				if poll(stop) != nil {
					return
				}
				s.merge(from, lo, mid, hi)
			}(from, lo, mid, min(lo+2*width, n))
		}
		if err := round(); err != nil {
			return err
		}
		from = 1 - from
	}
	if from == 1 {
		s.carry(1, 0, n)
	}
	return nil
}

// ParallelArgSortUint32Ctl is ArgSortUint32 fanned across workers: each
// worker stable-sorts a contiguous index run, then runs are merged pairwise
// with ties taken from the left run. The result equals ArgSortUint32 exactly.
// stop (may be nil) is polled before every run sort and merge chunk; its
// error aborts the sort. Worker panics return as typed errors.
func ParallelArgSortUint32Ctl(k Kind, keys []uint32, workers int, stop func() error) ([]int32, error) {
	workers, err := runs(len(keys), workers, stop)
	if err != nil {
		return nil, err
	}
	if workers <= 1 {
		return ArgSortUint32(k, keys), nil
	}
	s := &argShape{k: k, keys: keys, idx: [2][]int32{iota32(len(keys))}}
	if err := sortParallel(s, len(keys), workers, stop); err != nil {
		return nil, err
	}
	return s.idx[0], nil
}

type argShape struct {
	k    Kind
	keys []uint32
	idx  [2][]int32
}

func (s *argShape) sortRun(lo, hi int) { argSortRun(s.k, s.keys, s.idx[0][lo:hi]) }
func (s *argShape) grow()              { s.idx[1] = make([]int32, len(s.idx[0])) }
func (s *argShape) carry(from, lo, hi int) {
	copy(s.idx[1-from][lo:hi], s.idx[from][lo:hi])
}

func (s *argShape) merge(from, lo, mid, hi int) {
	keys, a, b, out := s.keys, s.idx[from][lo:mid], s.idx[from][mid:hi], s.idx[1-from][lo:hi]
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
		if keys[a[i]] <= keys[b[j]] {
			out[o] = a[i]
			i++
		} else {
			out[o] = b[j]
			j++
		}
		o++
	}
	o += copy(out[o:], a[i:])
	copy(out[o:], b[j:])
}

// ParallelSortUint32Ctl sorts xs ascending in place using per-worker runs
// plus pairwise merges; output equals SortUint32 exactly. stop and worker
// panics are handled as in ParallelArgSortUint32Ctl.
func ParallelSortUint32Ctl(k Kind, xs []uint32, workers int, stop func() error) error {
	workers, err := runs(len(xs), workers, stop)
	if err != nil {
		return err
	}
	if workers <= 1 {
		SortUint32(k, xs)
		return nil
	}
	return sortParallel(&valueShape{k: k, xs: [2][]uint32{xs}}, len(xs), workers, stop)
}

type valueShape struct {
	k  Kind
	xs [2][]uint32
}

func (s *valueShape) sortRun(lo, hi int) { SortUint32(s.k, s.xs[0][lo:hi]) }
func (s *valueShape) grow()              { s.xs[1] = make([]uint32, len(s.xs[0])) }
func (s *valueShape) carry(from, lo, hi int) {
	copy(s.xs[1-from][lo:hi], s.xs[from][lo:hi])
}

// merge's ties are indistinguishable values, so which run gives one up does
// not show in the output.
func (s *valueShape) merge(from, lo, mid, hi int) {
	a, b, out := s.xs[from][lo:mid], s.xs[from][mid:hi], s.xs[1-from][lo:hi]
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[o] = a[i]
			i++
		} else {
			out[o] = b[j]
			j++
		}
		o++
	}
	o += copy(out[o:], a[i:])
	copy(out[o:], b[j:])
}

// ParallelSortPairsUint32Int64Ctl sorts keys ascending, carrying vals along,
// using per-worker stable runs plus stable pairwise merges; output equals
// SortPairsUint32Int64 exactly (both are stable). stop and worker panics are
// handled as in ParallelArgSortUint32Ctl.
func ParallelSortPairsUint32Int64Ctl(k Kind, keys []uint32, vals []int64, workers int, stop func() error) error {
	if len(keys) != len(vals) {
		panic("sortx: ParallelSortPairsUint32Int64Ctl length mismatch")
	}
	workers, err := runs(len(keys), workers, stop)
	if err != nil {
		return err
	}
	if workers <= 1 {
		SortPairsUint32Int64(k, keys, vals)
		return nil
	}
	return sortParallel(&pairShape{k: k, keys: [2][]uint32{keys}, vals: [2][]int64{vals}}, len(keys), workers, stop)
}

type pairShape struct {
	k    Kind
	keys [2][]uint32
	vals [2][]int64
}

func (s *pairShape) sortRun(lo, hi int) {
	SortPairsUint32Int64(s.k, s.keys[0][lo:hi], s.vals[0][lo:hi])
}

func (s *pairShape) grow() {
	s.keys[1] = make([]uint32, len(s.keys[0]))
	s.vals[1] = make([]int64, len(s.vals[0]))
}

func (s *pairShape) carry(from, lo, hi int) {
	copy(s.keys[1-from][lo:hi], s.keys[from][lo:hi])
	copy(s.vals[1-from][lo:hi], s.vals[from][lo:hi])
}

func (s *pairShape) merge(from, lo, mid, hi int) {
	ka, kb, kout := s.keys[from][lo:mid], s.keys[from][mid:hi], s.keys[1-from][lo:hi]
	va, vb, vout := s.vals[from][lo:mid], s.vals[from][mid:hi], s.vals[1-from][lo:hi]
	i, j, o := 0, 0, 0
	for i < len(ka) && j < len(kb) {
		if ka[i] <= kb[j] {
			kout[o] = ka[i]
			vout[o] = va[i]
			i++
		} else {
			kout[o] = kb[j]
			vout[o] = vb[j]
			j++
		}
		o++
	}
	copy(vout[o:], va[i:])
	o += copy(kout[o:], ka[i:])
	copy(vout[o:], vb[j:])
	copy(kout[o:], kb[j:])
}
