package physical

import (
	"runtime"
	"slices"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// BenchmarkJoinHash prices one HJ kernel call, build plus probe, at the
// repository benchmark's Figure-5 cell size (|R| = 50 k unique sparse keys,
// |S| = 225 k foreign keys): dup1 builds on R and probes with S, dup4.5
// builds on S (4.5 rows per key) and probes with R. The result is released
// the way the relation-level joins release it once they have gathered, so
// neither the pair arrays nor the table's arrays count towards B/op: both come
// back out of the scratch pool.
func BenchmarkJoinHash(b *testing.B) {
	r, s := datagen.FKPair(42, datagen.FKConfig{RRows: 50000, SRows: 225000, AGroups: 50000})
	id, rid := r.MustColumn("ID").Uint32s(), s.MustColumn("R_ID").Uint32s()
	// probe-only is dup4.5 keeping the probe side's row ids alone, what the
	// Figure-5 query's join gathers: the count pass's per-key counts are the
	// answer, and the buckets are not walked a second time.
	for _, side := range []struct {
		name         string
		build, probe []uint32
		sides        pairSides
	}{{"dup1", id, rid, bothRows}, {"dup4.5", rid, id, bothRows}, {"probe-only", rid, id, rightRows}} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := joinSides(HJ, side.build, side.probe, props.Domain{}, JoinOptions{Hash: hashtable.Murmur3Fin}, side.sides)
				if err != nil || res.Len() != len(rid) {
					b.Fatalf("pairs = %d, err = %v", res.Len(), err)
				}
				res.Release()
			}
		})
	}
}

// BenchmarkJoinProbeSmall prices one SPHJ kernel call, build plus probe, at
// the size of the adhoc-plan star's S ⋈ R: 920 unique keys of the dense
// domain [0, 2000) (what a filter keeping about half of R leaves) probed by
// 9 000 foreign keys, so that a probe hits about 46 % of the time — where a
// branch on whether a key hit mispredicts most. build-only keeps the build
// side's row ids alone, both-sides the pairs.
func BenchmarkJoinProbeSmall(b *testing.B) {
	r := xrand.New(42)
	build := make([]uint32, 2000)
	for i := range build {
		build[i] = uint32(i)
	}
	r.ShuffleUint32(build)
	build = build[:920]
	probe := make([]uint32, 9000)
	for i := range probe {
		probe[i] = r.Uint32n(2000)
	}
	dom := props.Domain{Known: true, Dense: true, Lo: 0, Hi: 1999, Distinct: 2000}
	want := 0
	for _, k := range probe {
		if slices.Contains(build, k) {
			want++
		}
	}
	for _, v := range []struct {
		name  string
		sides pairSides
	}{{"build-only", leftRows}, {"both-sides", bothRows}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := joinSides(SPHJ, build, probe, dom, JoinOptions{}, v.sides)
				if err != nil || res.Len() != want {
					b.Fatalf("pairs = %d, want %d, err = %v", res.Len(), want, err)
				}
				res.Release()
			}
		})
	}
}

// indexedJoinCase is the Figure-5 join with its build side prebuilt under the
// right input: S's table (a Multi, or an SPH over the dense domain of the
// keys R_ID refers to) probed with R in R's order, R.A kept.
func indexedJoinCase(tb testing.TB, kind JoinKind) (r, s *storage.Relation, idx RowIndex) {
	r, s = datagen.FKPair(42, datagen.FKConfig{RRows: 50000, SRows: 225000, AGroups: 50000, Dense: true})
	t, err := BuildJoinTable(s, "R_ID", kind, JoinOptions{}, domainOf(r, "ID"))
	if err != nil {
		tb.Fatal(err)
	}
	t.Keep()
	return r, s, t.Index()
}

// BenchmarkJoinIndexed prices the probe step alone at relation level: what a
// join through an Algorithmic View costs once the build is prepaid.
func BenchmarkJoinIndexed(b *testing.B) {
	for _, kind := range []JoinKind{HJ, SPHJ} {
		r, s, idx := indexedJoinCase(b, kind)
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := JoinRel(r, s, "ID", "R_ID", kind, JoinOptions{}, props.Domain{}, true, []string{"A"}, idx)
				if err != nil || out.NumRows() != s.NumRows() {
					b.Fatalf("out = %v, err = %v", out, err)
				}
			}
		})
	}
}

// TestJoinIndexedAllocBound is the B/op guard of the indexed join: it
// allocates its output column (225 k rows of 4 B; now and then the row-id
// scratch again, when a collection has emptied the pool) and no table — S's
// Multi is 2.8 MB, its SPH 1.1 MB.
func TestJoinIndexedAllocBound(t *testing.T) {
	for _, kind := range []JoinKind{HJ, SPHJ} {
		r, s, idx := indexedJoinCase(t, kind)
		const runs = 5
		var before, after runtime.MemStats
		for i := -1; i < runs; i++ { // run -1 leaves the row-id scratch in the pool
			if i == 0 {
				runtime.ReadMemStats(&before)
			}
			if _, err := JoinRel(r, s, "ID", "R_ID", kind, JoinOptions{}, props.Domain{}, true, []string{"A"}, idx); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 1500000 {
			t.Fatalf("%s indexed join allocates %d B/op, want at most 1.5 MB (the output column is 0.9 MB)", kind, got)
		}
	}
}

// groupBenchCases are the grouping kernels the deep plans use, each on the
// Figure-4 quadrant it is chosen for (BSG on the one where its sorted
// output is all it has to offer): 300 k rows in 20 k groups.
var groupBenchCases = []struct {
	kind GroupKind
	q    datagen.Quadrant
}{
	{HG, datagen.Quadrant{Sorted: false, Dense: false}},
	{SPHG, datagen.Quadrant{Sorted: false, Dense: true}},
	{OG, datagen.Quadrant{Sorted: true, Dense: false}},
	{BSG, datagen.Quadrant{Sorted: false, Dense: false}},
}

// BenchmarkGroupByRelCountSum prices the Figure-4 query's breaker —
// COUNT(*) and SUM(V) over 300 k rows in 20 k groups, both out of one kernel
// pass over the 16-byte state — and, as <kind>/MinMax, the same statement
// with MIN(V) and MAX(V) added, which selects the 32-byte state.
func BenchmarkGroupByRelCountSum(b *testing.B) {
	countSum := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}
	minMax := append(countSum[:2:2], expr.AggSpec{Func: expr.AggMin, Col: "val"}, expr.AggSpec{Func: expr.AggMax, Col: "val"})
	for _, c := range groupBenchCases {
		rel := datagen.GroupingRelation(42, 300000, 20000, c.q)
		for _, v := range []struct {
			name string
			aggs []expr.AggSpec
		}{{c.kind.String(), countSum}, {c.kind.String() + "/MinMax", minMax}} {
			b.Run(v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := GroupByRel(rel, "key", v.aggs, c.kind, GroupOptions{}, props.Domain{})
					if err != nil || out.NumRows() != 20000 {
						b.Fatalf("groups = %v, err = %v", out, err)
					}
				}
			})
		}
	}
}

// BenchmarkGroupKernel prices Group alone — key resolution plus COUNT and
// SUM maintenance, no relation around it — in ns/row, the unit of
// cost.Calibrated's per-row constants.
func BenchmarkGroupKernel(b *testing.B) {
	for _, c := range groupBenchCases[:3] {
		rel := datagen.GroupingRelation(42, 300000, 20000, c.q)
		keys, vals, dom := rel.MustColumn("key").Uint32s(), rel.MustColumn("val").Int64s(), domainOf(rel, "key")
		b.Run(c.kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Group(c.kind, keys, vals, dom, GroupOptions{})
				if err != nil || len(res.Keys) != 20000 {
					b.Fatalf("err = %v", err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/row")
		})
	}
}

// TestGroupHashAllocBound is the B/op guard of the Figure-4 HG breaker: a
// directory sized once and 16-byte states keep one GROUP BY over 300 k rows
// in 20 k groups under 1.5 MB (5.4 MB when the arena grew by append around
// 40-byte entries).
func TestGroupHashAllocBound(t *testing.T) {
	rel := datagen.GroupingRelation(42, 300000, 20000, datagen.Quadrant{})
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := GroupByRel(rel, "key", aggs, HG, GroupOptions{}, props.Domain{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 1500000 {
		t.Fatalf("HG GROUP BY allocates %d B/op, want at most 1.5 MB", got)
	}
}
