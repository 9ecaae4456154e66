package storage

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"dqo/internal/xrand"
)

// The oracle: exact statistics as a Go map sees the values, one insert per
// row. The kernels in stats.go must agree with it in every field.

func oracleStatsU64(keys []uint64) Stats {
	st := Stats{Rows: len(keys), Sorted: true, Exact: true}
	if len(keys) == 0 {
		st.Dense = true
		return st
	}
	st.Min, st.Max = keys[0], keys[0]
	distinct := make(map[uint64]struct{})
	prev := keys[0]
	for _, k := range keys {
		if k < prev {
			st.Sorted = false
		}
		prev = k
		st.Min, st.Max = min(st.Min, k), max(st.Max, k)
		distinct[k] = struct{}{}
	}
	st.Distinct = len(distinct)
	st.Dense = uint64(st.Distinct) == st.Max-st.Min+1
	return st
}

func oracleStatsF64(vals []float64) Stats {
	st := Stats{Rows: len(vals), Sorted: true, Exact: true}
	prev := math.Inf(-1)
	distinct := make(map[float64]struct{})
	for _, v := range vals {
		if v < prev {
			st.Sorted = false
		}
		prev = v
		distinct[v] = struct{}{}
	}
	st.Distinct = len(distinct)
	return st
}

// oracleStats computes c's statistics through the oracle, from its values
// mapped to order-preserving keys as Column.Keys maps them.
func oracleStats(c *Column) Stats {
	if c.Kind() == KindFloat64 {
		return oracleStatsF64(c.Float64s())
	}
	return oracleStatsU64(c.Keys())
}

// checkStats compares a column's computed statistics with the oracle's.
func checkStats(t *testing.T, name string, c *Column) {
	t.Helper()
	c.ResetStats()
	if got, want := c.Stats(), oracleStats(c); got != want {
		t.Errorf("%s (%s, %d rows): got %+v, oracle %+v", name, c.Kind(), c.Len(), got, want)
	}
}

// columnsOf returns one column of each kind holding vals: uint32 and string
// codes (vals truncated to 32 bits), uint64, int64 (the same bits) and
// float64 (the same bits).
func columnsOf(vals []uint64) []*Column {
	u32 := make([]uint32, len(vals))
	i64 := make([]int64, len(vals))
	f64 := make([]float64, len(vals))
	for i, v := range vals {
		u32[i], i64[i], f64[i] = uint32(v), int64(v), math.Float64frombits(v)
	}
	// Statistics never read the dictionary, so the string column's codes
	// need not be interned.
	str := &Column{name: "str", kind: KindString, u32: u32, dict: NewDict()}
	return []*Column{NewUint32("u32", u32), str, NewUint64("u64", vals), NewInt64("i64", i64), NewFloat64("f64", f64)}
}

// statShapes are the hand-picked shapes every kind must agree on.
func statShapes() map[string][]uint64 {
	r := xrand.New(37)
	n := 5000
	sorted := make([]uint64, n)
	denseUnsorted := make([]uint64, n)
	sparse32 := make([]uint64, n)
	sparse64 := make([]uint64, n)
	fewRuns := make([]uint64, n)
	for i := range n {
		sorted[i] = uint64(i / 3)
		denseUnsorted[i] = uint64((i * 7919) % 1000)
		sparse32[i] = uint64(r.Uint32()) // over the full 32-bit span
		sparse64[i] = r.Uint64() % 300 * 0x0123456789ABCDEF
		fewRuns[i] = uint64(i / 1000 % 3)
	}
	sparse32[0], sparse32[1] = 0, math.MaxUint32
	neg0, pos0 := math.Float64bits(math.Copysign(0, -1)), math.Float64bits(0)
	nan, nan2 := math.Float64bits(math.NaN()), math.Float64bits(math.NaN())|1
	inf, ninf := math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1))
	return map[string][]uint64{
		"empty":          {},
		"one value":      {42},
		"one zero":       {0},
		"sorted":         sorted,
		"dense unsorted": denseUnsorted,
		"sparse 32-bit":  sparse32,
		"sparse 64-bit":  sparse64,
		"sorted runs":    {1, 1, 2, 2, 2, 3, 9, 9},
		"descending":     {5, 4, 3, 2, 1, 0},
		"duplicate runs": fewRuns,
		"0 and max":      {0, math.MaxUint64, 0, math.MaxUint64, 7},
		"max then 0":     {math.MaxUint64, 0},
		"all max":        {math.MaxUint64, math.MaxUint64},
		"int64 extremes": {1 << 63, 1<<63 - 1, 0, 1<<64 - 1, 1 << 63, 1},
		"int64 negative": {1<<64 - 5, 1<<64 - 1, 1<<64 - 3, 1<<64 - 5},
		"nan and zeros":  {nan, neg0, pos0, nan, neg0, 1 << 52, nan2},
		"signed zeros":   {neg0, pos0, neg0, pos0},
		"sorted zeros":   {ninf, neg0, pos0, neg0, inf, inf},
		"nan sorted":     {pos0, nan, 1 << 62, nan, 1 << 62},
		"only nan":       {nan, nan, nan2},
		"infinities":     {inf, ninf, inf, pos0},
		"32-bit aliases": {1<<32 + 7, 7, 2<<32 + 7, 9, 1<<32 + 9},
		"bitmap edge":    {0, 64*4 - 1, 3, 2},
		"bitmap over":    {0, 64 * 4, 3, 2},
	}
}

// TestStatsMatchMapOracle: every kind's statistics agree with the map-based
// oracle on the hand-picked shapes and on random columns of every path
// (runs, bitmap, 32- and 64-bit hash sets).
func TestStatsMatchMapOracle(t *testing.T) {
	for name, vals := range statShapes() {
		for _, c := range columnsOf(vals) {
			checkStats(t, name, c)
		}
	}
	r := xrand.New(2000)
	for i := range 400 {
		n := int(r.Uint64() % 3000)
		span := []uint64{2, 100, uint64(n)*64 + 1, 1 << 32, 1<<63 + 12345, math.MaxUint64}[i%6]
		base := r.Uint64()
		vals := make([]uint64, n)
		for j := range vals {
			vals[j] = base + r.Uint64()%span
		}
		if i%5 == 0 {
			slices.Sort(vals)
		}
		for _, c := range columnsOf(vals) {
			checkStats(t, "random", c)
		}
	}
}

// FuzzColumnStats reads the input as 8-byte little-endian values (width
// bytes of each kept, so narrow inputs repeat values) and compares every
// kind's statistics with the oracle.
func FuzzColumnStats(f *testing.F) {
	for _, vals := range statShapes() {
		if len(vals) > 64 {
			continue
		}
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		f.Add(b, uint8(8))
	}
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		w := int(width%8) + 1
		vals := make([]uint64, len(data)/8)
		for i := range vals {
			var v uint64
			for b := range w {
				v |= uint64(data[8*i+b]) << (8 * b)
			}
			if data[8*i+7]&0x80 != 0 {
				v = -v // reach the negative int64 and the high uint64 keys
			}
			vals[i] = v
		}
		for _, c := range columnsOf(vals) {
			checkStats(t, "fuzz", c)
		}
	})
}

// BenchmarkColumnStats times one exact statistics computation over 300 000
// rows per shape, reported per value: a sorted column (the run count), a
// dense unsorted one (the bitmap), a sparse unsorted one of 20 000 distinct
// keys over the full 32-bit span (the hash set) and an int64 payload of
// values below 1 000 (the bitmap, through the sign flip).
func BenchmarkColumnStats(b *testing.B) {
	const rows, groups = 300_000, 20_000
	r := xrand.New(7)
	sorted := make([]uint32, rows)
	dense := make([]uint32, rows)
	sparse := make([]uint32, rows)
	payload := make([]int64, rows)
	keys := make([]uint32, groups)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	for i := range rows {
		sorted[i] = uint32(i * groups / rows)
		dense[i] = uint32(r.Uint64() % groups)
		sparse[i] = keys[r.Uint64()%groups]
		payload[i] = int64(r.Uint64()%1000) - 500
	}
	for _, c := range []*Column{
		NewUint32("sorted", sorted), NewUint32("dense-unsorted", dense),
		NewUint32("sparse-unsorted", sparse), NewInt64("int64-payload", payload),
	} {
		b.Run(c.Name(), func(b *testing.B) {
			for b.Loop() {
				c.ResetStats()
				c.Stats()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/value")
		})
	}
}
