package physical

import "dqo/internal/govern"

// Budget/cancellation plumbing for the kernels. Kernels poll their options'
// Ctl at block boundaries — the joins every checkEvery rows, the grouping
// kernels every groupBlock rows, a quarter of that — never inside a row loop:
// cheap enough to disappear in the noise, frequent enough that cancellation
// and budget violations surface mid-kernel instead of only at morsel
// boundaries.
//
// Accounting discipline: kernels charge their *internal* transient
// allocations (hash tables, sorted copies, partition buffers, pair lists)
// and release everything they charged before returning — success or failure.
// Output relations are charged by the executor that materialises them, so
// nothing is double-counted.

// checkEvery is the longest stretch of rows a kernel folds between Ctl polls.
const checkEvery = 1 << 13

// resv tracks how many bytes a kernel currently holds against the budget so
// it can charge monotonically-growing structures by delta and release
// exactly what it took.
type resv struct {
	ctl  *govern.Ctl
	held int64
}

// charge grows the reservation to target bytes (no-op if already at or above
// it, or when there is no budget).
func (r *resv) charge(target int64) error {
	if target <= r.held {
		return nil
	}
	if err := r.ctl.Reserve(target - r.held); err != nil {
		return err
	}
	r.held = target
	return nil
}

// add grows the reservation by n bytes.
func (r *resv) add(n int64) error {
	if err := r.ctl.Reserve(n); err != nil {
		return err
	}
	r.held += n
	return nil
}

// release returns everything held; idempotent, safe in defer.
func (r *resv) release() {
	if r.held != 0 {
		r.ctl.Release(r.held)
		r.held = 0
	}
}
