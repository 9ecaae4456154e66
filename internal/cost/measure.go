package cost

import (
	"slices"
	"time"

	"dqo/internal/hashtable"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/sortx"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// Measure fits a Calibrated model to *this* machine by timing the actual
// kernels on synthetic data of about rows rows (minimum 64Ki). It is the
// learned-cost-model counterpart the paper gestures at via the Data
// Calculator citation [7]: the right molecule is an empirical fact, so the
// model asks the hardware. Intended for offline use (cmd/dqobench
// -calibrate). Each kernel is timed five times and the median kept; a call
// takes a few seconds at the 2 M rows dqobench uses.
func Measure(rows int) *Calibrated {
	if rows < 1<<16 {
		rows = 1 << 16
	}
	m := NewCalibrated() // start from shipped defaults, overwrite measured parts
	r := xrand.New(0xCA11B8)

	const groups = 8192
	sparse := make([]uint32, rows)
	for i := range sparse {
		sparse[i] = r.Uint32() &^ 7 // sparse-ish domain
	}
	sparseG := make([]uint32, rows)
	for i := range sparseG {
		sparseG[i] = (r.Uint32() % groups) * 524287 // exactly <= groups distinct, spread out
	}
	dense := make([]uint32, rows)
	for i := range dense {
		dense[i] = r.Uint32() % groups
	}
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i & 1023)
	}
	domOf := func(keys []uint32) props.Domain {
		st := storage.Uint32Stats(keys)
		return props.Domain{Known: true, Lo: st.Min, Hi: st.Max, Distinct: int64(st.Distinct), Dense: st.Dense}
	}
	sparseDom := domOf(sparseG)
	denseDom := domOf(dense)

	// nsPerRow is the median of five timings of fn: one timing can land on a
	// preempted slice, and what Measure returns is shipped as constants.
	// prep, when non-nil, runs untimed before each timing.
	nsPerRow := func(prep, fn func()) float64 {
		var ts [5]float64
		for i := range ts {
			if prep != nil {
				prep()
			}
			start := time.Now()
			fn()
			ts[i] = float64(time.Since(start).Nanoseconds()) / float64(rows)
		}
		slices.Sort(ts[:])
		return ts[len(ts)/2]
	}

	// Hash-function molecules: time HG with every function. The cheapest
	// function is put at ~0.5 ns, the rest of its time is the table's insert
	// cost, and each other function costs its excess over the cheapest.
	funcs := hashtable.Funcs()
	times := make([]float64, len(funcs))
	for fi, f := range funcs {
		opt := physical.GroupOptions{Hash: f}
		times[fi] = nsPerRow(nil, func() {
			_, _ = physical.Group(physical.HG, sparseG, vals, sparseDom, opt)
		})
	}
	fastest := slices.Min(times)
	m.InsertNS = fastest - 0.5
	for fi, f := range funcs {
		m.HashNS[f] = times[fi] - fastest + 0.5
	}

	// Sort molecules.
	buf := make([]uint32, rows)
	timeSort := func(k sortx.Kind) float64 {
		return nsPerRow(func() { copy(buf, sparse) }, func() { sortx.SortUint32(k, buf) })
	}
	l2 := log2(float64(rows))
	m.RadixRowNS = timeSort(sortx.Radix)
	m.CmpRowNS = timeSort(sortx.Comparison) / l2

	// Array/scan kernels.
	m.SPHRowNS = nsPerRow(nil, func() {
		_, _ = physical.Group(physical.SPHG, dense, vals, denseDom, physical.GroupOptions{})
	})
	sorted := make([]uint32, rows)
	copy(sorted, dense)
	sortx.SortUint32(sortx.Radix, sorted)
	m.OGRowNS = nsPerRow(nil, func() {
		_, _ = physical.Group(physical.OG, sorted, vals, denseDom, physical.GroupOptions{})
	})
	bs := nsPerRow(nil, func() {
		_, _ = physical.Group(physical.BSG, sparseG, vals, sparseDom, physical.GroupOptions{})
	})
	m.BSRowLogNS = bs / log2(groups)

	// Cache penalty: HG per-row cost growth from few to many groups.
	fewDom := props.Domain{Known: true, Lo: 0, Hi: 255, Distinct: 256, Dense: true}
	few := make([]uint32, rows)
	for i := range few {
		few[i] = dense[i] % 256
	}
	tFew := nsPerRow(nil, func() {
		_, _ = physical.Group(physical.HG, few, vals, fewDom, physical.GroupOptions{})
	})
	tMany := times[0] // murmur3fin at `groups` groups
	if tMany > tFew && groups > int(m.CacheGroups) {
		m.CacheNS = (tMany - tFew) / log2(float64(groups)/m.CacheGroups)
	}
	// Clamp against degenerate measurements (e.g. noisy CI machines).
	clamp := func(x *float64, lo float64) {
		if *x < lo {
			*x = lo
		}
	}
	clamp(&m.InsertNS, 0.5)
	clamp(&m.RadixRowNS, 0.2)
	clamp(&m.CmpRowNS, 0.05)
	clamp(&m.SPHRowNS, 0.2)
	clamp(&m.OGRowNS, 0.2)
	clamp(&m.BSRowLogNS, 0.05)
	clamp(&m.CacheNS, 0)
	return m
}
