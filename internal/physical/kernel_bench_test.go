package physical

import (
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/hashtable"
	"dqo/internal/props"
)

// BenchmarkJoinHash prices one HJ kernel call, build plus probe, at the
// repository benchmark's Figure-5 cell size (|R| = 50 k unique sparse keys,
// |S| = 225 k foreign keys): dup1 builds on R and probes with S, dup4.5
// builds on S (4.5 rows per key) and probes with R. B/op is the table plus
// the exact-size pair arrays.
func BenchmarkJoinHash(b *testing.B) {
	r, s := datagen.FKPair(42, datagen.FKConfig{RRows: 50000, SRows: 225000, AGroups: 50000})
	id, rid := r.MustColumn("ID").Uint32s(), s.MustColumn("R_ID").Uint32s()
	for _, side := range []struct {
		name         string
		build, probe []uint32
	}{{"dup1", id, rid}, {"dup4.5", rid, id}} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Join(HJ, side.build, side.probe, props.Domain{}, JoinOptions{Hash: hashtable.Murmur3Fin})
				if err != nil || res.Len() != len(rid) {
					b.Fatalf("pairs = %d, err = %v", res.Len(), err)
				}
			}
		})
	}
}

// BenchmarkGroupByRelCountSum prices the Figure-4 query's breaker —
// COUNT(*) and SUM(V) over 300 k rows in 20 k groups — for the three
// grouping kernels the deep plans use, each on the quadrant it is chosen
// for. Both aggregates come out of one kernel pass.
func BenchmarkGroupByRelCountSum(b *testing.B) {
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "val"}}
	for _, c := range []struct {
		kind GroupKind
		q    datagen.Quadrant
	}{
		{HG, datagen.Quadrant{Sorted: false, Dense: false}},
		{SPHG, datagen.Quadrant{Sorted: false, Dense: true}},
		{OG, datagen.Quadrant{Sorted: true, Dense: false}},
	} {
		rel := datagen.GroupingRelation(42, 300000, 20000, c.q)
		b.Run(c.kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := GroupByRel(rel, "key", aggs, c.kind, GroupOptions{})
				if err != nil || out.NumRows() != 20000 {
					b.Fatalf("groups = %v, err = %v", out, err)
				}
			}
		})
	}
}
