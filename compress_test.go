package dqo

import (
	"context"
	"strings"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/naive"
)

// compressedCorpusDB is corpusDB with every table re-encoded into compressed
// column segments. The logical contents are identical, so the full corpus
// must return byte-identical results — the decode-fallback guarantee that
// makes compression a pure cost dimension.
func compressedCorpusDB(t testing.TB) *DB {
	t.Helper()
	db := corpusDB(t)
	for _, name := range db.Tables() {
		if err := db.CompressTable(name); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// planText renders the chosen physical plan without the timing header, so
// plans are comparable across runs.
func planText(t *testing.T, db *DB, mode Mode, query string) string {
	t.Helper()
	res, _, err := db.compile(mode, query, queryConfig{}, nil)
	if err != nil {
		t.Fatalf("%s/%s: %v", mode, query, err)
	}
	return res.Best.Explain()
}

// TestCompressedPlanChange is the headline acceptance check: compression is
// a plan property that changes which physical plan wins. Under the
// calibrated model, at least one corpus query's chosen plan must differ
// between the plain and compressed databases, with a direct-on-compressed
// granule (CompressedScan/CompressedFilter) in the winning plan — while
// under the paper's Table 2 model (exact cost ties, decoded granule
// enumerated first) plans must be unchanged.
func TestCompressedPlanChange(t *testing.T) {
	plain := corpusDB(t)
	comp := compressedCorpusDB(t)
	changed, sawKernel := 0, false
	for _, q := range corpusQueries {
		pp := planText(t, plain, ModeDQOCalibrated, q)
		cp := planText(t, comp, ModeDQOCalibrated, q)
		if strings.Contains(pp, "Compressed") {
			t.Fatalf("plain database chose a compressed granule for %q:\n%s", q, pp)
		}
		if strings.Contains(cp, "Compressed") {
			sawKernel = true
		}
		if pp != cp {
			changed++
		}
	}
	if !sawKernel {
		t.Fatal("no corpus query chose a compressed granule under the calibrated model")
	}
	if changed == 0 {
		t.Fatal("compression changed no plan under the calibrated model")
	}
	// Paper model: compressed granules are exact cost ties and the decoded
	// twin is enumerated first, so SQO and DQO plans are byte-identical.
	for _, mode := range []Mode{ModeSQO, ModeDQO} {
		for _, q := range corpusQueries {
			pp := planText(t, plain, mode, q)
			cp := planText(t, comp, mode, q)
			if pp != cp {
				t.Errorf("%s: compression changed the paper-model plan for %q\nplain:\n%s\ncompressed:\n%s",
					mode, q, pp, cp)
			}
		}
	}
}

// TestCompressedExplainAnalyze checks the observability satellite: EXPLAIN
// renders compressed scan/filter nodes with their encoding and zone-map
// census, and EXPLAIN ANALYZE lines its measured rows up against them.
func TestCompressedExplainAnalyze(t *testing.T) {
	comp := compressedCorpusDB(t)
	const q = "SELECT key, val FROM runs WHERE key = 5"
	out, err := comp.Explain(ModeDQOCalibrated, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CompressedFilter") {
		t.Fatalf("EXPLAIN shows no compressed filter granule:\n%s", out)
	}
	if !strings.Contains(out, "segs=") {
		t.Fatalf("compressed filter not annotated with its segment census:\n%s", out)
	}
	an, err := comp.Explain(ModeDQOCalibrated, q, ExplainAnalyze())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an, "CompressedFilter") {
		t.Fatalf("EXPLAIN ANALYZE lost the compressed annotation:\n%s", an)
	}
}

// TestCompressedPlanCacheRebind checks that a cached compressed-filter
// template rebinds its encoded bounds and zone census from the new
// statement's literals: the second query must hit the cache and still
// return the rows its own literal selects, not the template's.
func TestCompressedPlanCacheRebind(t *testing.T) {
	db := compressedCorpusDB(t)
	db.EnablePlanCache(true)
	countKey := func(q string, key uint32) int {
		res, err := db.Query(context.Background(), ModeDQOCalibrated, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		keys, err := res.Uint32Column("runs.key")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if k != key {
				t.Fatalf("%s: returned key %d", q, k)
			}
		}
		return len(keys)
	}
	n5 := countKey("SELECT key, val FROM runs WHERE key = 5", 5)
	hitsBefore, _ := db.PlanCacheStats()
	n2 := countKey("SELECT key, val FROM runs WHERE key = 2", 2)
	hitsAfter, _ := db.PlanCacheStats()
	if hitsAfter <= hitsBefore {
		t.Fatal("second query missed the plan cache; rebind untested")
	}
	if n5 == 0 || n2 == 0 || n5 == n2 {
		// The Zipf multiset makes every key's frequency distinct with
		// overwhelming likelihood; equal counts mean the rebound plan
		// replayed the old bounds.
		t.Fatalf("suspicious counts: key=5 -> %d rows, key=2 -> %d rows", n5, n2)
	}
}

// TestCompressedFilterUnderJoin: with the WHERE conjunct bound onto the scan it
// reads, a range filter below a join over a compressed clustered table — data
// whose zone maps skip segments — runs as the direct-on-compressed filter
// granule under the calibrated model, and answers like the oracle.
func TestCompressedFilterUnderJoin(t *testing.T) {
	db := Open()
	runs := datagen.CompressRelation("runs", 11, 200_000, 64, 1.2, true)
	g, w := make([]uint32, 64), make([]int64, 64)
	for i := range g {
		g[i], w[i] = uint32(i), int64(i%7)
	}
	for _, tab := range []*Table{{rel: runs}, NewTableBuilder("dim").Uint32("g", g).Int64("w", w).MustBuild()} {
		if err := db.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompressTable("runs"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT runs.key, COUNT(*), SUM(dim.w) FROM runs JOIN dim ON runs.key = dim.g WHERE runs.key >= 20 GROUP BY runs.key ORDER BY runs.key",
		"SELECT dim.g, COUNT(*) FROM dim JOIN runs ON dim.g = runs.key WHERE runs.key < 4 AND dim.w < 5 GROUP BY dim.g",
	} {
		res, err := db.Query(context.Background(), ModeDQOCalibrated, q, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		plan := res.PlanExplain()
		if !strings.Contains(plan, "CompressedFilter") || strings.Index(plan, "CompressedFilter") < strings.Index(plan, "J(") {
			t.Fatalf("%s: no direct-on-compressed filter below the join:\n%s", q, plan)
		}
		if !strings.Contains(plan, " skipped]") || strings.Contains(plan, "segs=0/") {
			t.Fatalf("%s: the zone maps skip no segment:\n%s", q, plan)
		}
		want := oracle(t, db, q)
		if err := naive.Check(res.rel, want.rel, want.sortKey, want.limit); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// TestCompressDecompressRoundTrip checks the storage toggles through the
// public API: compress, query, decompress, query — identical results, and
// DescribeStorage reflects each state.
func TestCompressDecompressRoundTrip(t *testing.T) {
	db := corpusDB(t)
	want, err := db.Query(context.Background(), ModeDQOCalibrated, paperSQL+" ORDER BY R.A")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CompressTable("R"); err != nil {
		t.Fatal(err)
	}
	desc, err := db.DescribeStorage("R")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "bitpack") && !strings.Contains(desc, "rle") && !strings.Contains(desc, "for") {
		t.Fatalf("R not compressed:\n%s", desc)
	}
	got, err := db.Query(context.Background(), ModeDQOCalibrated, paperSQL+" ORDER BY R.A")
	if err != nil {
		t.Fatal(err)
	}
	if !got.rel.Equal(want.rel) {
		t.Fatalf("compressed query differs:\nplain:\n%s\ncompressed:\n%s", want.rel, got.rel)
	}
	if err := db.DecompressTable("R"); err != nil {
		t.Fatal(err)
	}
	desc, err = db.DescribeStorage("R")
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []string{"bitpack", "rle", "for"} {
		if strings.Contains(desc, enc) {
			t.Fatalf("R still %s after DecompressTable:\n%s", enc, desc)
		}
	}
	got, err = db.Query(context.Background(), ModeDQOCalibrated, paperSQL+" ORDER BY R.A")
	if err != nil {
		t.Fatal(err)
	}
	if !got.rel.Equal(want.rel) {
		t.Fatalf("decompressed query differs from original")
	}
	if _, err := db.DescribeStorage("nope"); err == nil {
		t.Fatal("DescribeStorage of unknown table did not error")
	}
	if err := db.CompressTable("nope"); err == nil {
		t.Fatal("CompressTable of unknown table did not error")
	}
}
