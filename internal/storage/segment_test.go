package storage

import (
	"math/rand"
	"testing"
)

// testPayloads returns value streams with qualitatively different shapes:
// heavy runs (RLE-friendly), small domain (bit-pack-friendly), clustered
// large values (FoR-friendly), and adversarial cases.
func testPayloads(rng *rand.Rand, n int) map[string][]uint32 {
	runs := make([]uint32, n)
	v := uint32(0)
	for i := range runs {
		if rng.Intn(50) == 0 {
			v = uint32(rng.Intn(8))
		}
		runs[i] = v
	}
	small := make([]uint32, n)
	for i := range small {
		small[i] = uint32(rng.Intn(100))
	}
	clustered := make([]uint32, n)
	for i := range clustered {
		clustered[i] = 3_000_000_000 + uint32(rng.Intn(1000))
	}
	wide := make([]uint32, n)
	for i := range wide {
		wide[i] = rng.Uint32()
	}
	constant := make([]uint32, n)
	for i := range constant {
		constant[i] = 42
	}
	return map[string][]uint32{
		"runs": runs, "small": small, "clustered": clustered,
		"wide": wide, "constant": constant,
	}
}

func TestEncodedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, vals := range testPayloads(rng, 10_000) {
		for _, enc := range []Encoding{EncDictRLE, EncBitPack, EncFoR} {
			e, err := EncodeUint32(vals, enc, 4096)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, enc, err)
			}
			if e.Rows() != len(vals) {
				t.Fatalf("%s/%s: rows %d, want %d", name, enc, e.Rows(), len(vals))
			}
			for i, want := range vals {
				if got := e.At(i); got != want {
					t.Fatalf("%s/%s: At(%d) = %d, want %d", name, enc, i, got, want)
				}
			}
			dst := make([]uint32, len(vals))
			e.DecodeRange(0, len(vals), dst)
			for i, want := range vals {
				if dst[i] != want {
					t.Fatalf("%s/%s: DecodeRange[%d] = %d, want %d", name, enc, i, dst[i], want)
				}
			}
			// Partial windows, including mid-run and mid-segment boundaries.
			for _, w := range [][2]int{{0, 1}, {4095, 4097}, {100, 9000}, {9999, 10000}} {
				buf := make([]uint32, w[1]-w[0])
				e.DecodeRange(w[0], w[1], buf)
				for i := range buf {
					if buf[i] != vals[w[0]+i] {
						t.Fatalf("%s/%s: window %v row %d = %d, want %d",
							name, enc, w, w[0]+i, buf[i], vals[w[0]+i])
					}
				}
			}
		}
	}
}

func naiveSelect(vals []uint32, lo, hi int, plo, phi uint32) []int32 {
	var out []int32
	for i := lo; i < hi; i++ {
		if vals[i] >= plo && vals[i] <= phi {
			out = append(out, int32(i))
		}
	}
	return out
}

func TestSelectRangeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, vals := range testPayloads(rng, 10_000) {
		for _, enc := range []Encoding{EncDictRLE, EncBitPack, EncFoR} {
			e, _ := EncodeUint32(vals, enc, 1024)
			for trial := 0; trial < 30; trial++ {
				lo := rng.Intn(len(vals))
				hi := lo + rng.Intn(len(vals)-lo) + 1
				a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
				if a > b {
					a, b = b, a
				}
				want := naiveSelect(vals, lo, hi, a, b)
				got, _ := e.SelectRange(lo, hi, a, b, nil)
				if len(got) != len(want) {
					t.Fatalf("%s/%s: select [%d,%d) in [%d,%d]: %d rows, want %d",
						name, enc, lo, hi, a, b, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%s: select row %d = %d, want %d", name, enc, i, got[i], want[i])
					}
				}
			}
			// Empty and total predicates.
			if got, _ := e.SelectRange(0, len(vals), 5, 4, nil); len(got) != 0 {
				t.Fatalf("%s/%s: inverted bounds selected %d rows", name, enc, len(got))
			}
			got, zone := e.SelectRange(0, len(vals), 0, ^uint32(0), nil)
			if len(got) != len(vals) {
				t.Fatalf("%s/%s: total predicate selected %d rows", name, enc, len(got))
			}
			if zone != e.NumSegments() {
				t.Fatalf("%s/%s: total predicate answered %d segments via zones, want all %d",
					name, enc, zone, e.NumSegments())
			}
		}
	}
}

func TestPredStatsAndSumRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, vals := range testPayloads(rng, 10_000) {
		var want uint64
		for _, v := range vals {
			want += uint64(v)
		}
		for _, enc := range []Encoding{EncDictRLE, EncBitPack, EncFoR} {
			e, _ := EncodeUint32(vals, enc, 1024)
			if got := e.SumRange(0, len(vals)); got != want {
				t.Fatalf("%s/%s: SumRange = %d, want %d", name, enc, got, want)
			}
			var partial uint64
			for _, v := range vals[1000:3001] {
				partial += uint64(v)
			}
			if got := e.SumRange(1000, 3001); got != partial {
				t.Fatalf("%s/%s: partial SumRange = %d, want %d", name, enc, got, partial)
			}
			skipped, full, part, _ := e.PredStats(0, ^uint32(0))
			if skipped != 0 || part != 0 || full != e.NumSegments() {
				t.Fatalf("%s/%s: total predicate PredStats = (%d,%d,%d)", name, enc, skipped, full, part)
			}
		}
	}
	// Zone skipping: a sorted column prunes everything outside the band.
	sorted := make([]uint32, 8192)
	for i := range sorted {
		sorted[i] = uint32(i)
	}
	e, _ := EncodeUint32(sorted, EncFoR, 1024)
	skipped, full, part, _ := e.PredStats(2048, 3071)
	if skipped != 7 || full != 1 || part != 0 {
		t.Fatalf("sorted FoR PredStats = (%d,%d,%d), want (7,1,0)", skipped, full, part)
	}
}

func TestCompressColumnSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := testPayloads(rng, 10_000)["runs"]
	plain := NewUint32("v", append([]uint32(nil), vals...))
	comp := CompressColumn(plain, EncDictRLE)
	if comp.Encoding() != EncDictRLE {
		t.Fatalf("Encoding = %s, want rle", comp.Encoding())
	}
	// Memory accounting charges encoded bytes, not logical bytes. Measured
	// before anything forces the lazy decode fallback.
	if comp.MemBytes() >= plain.MemBytes() {
		t.Fatalf("encoded MemBytes %d not below plain %d", comp.MemBytes(), plain.MemBytes())
	}
	if !plain.Equal(comp) {
		t.Fatal("compressed column differs from plain")
	}
	if plain.Stats() != comp.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", plain.Stats(), comp.Stats())
	}
	// Slices are zero-copy windows; mid-run boundaries decode correctly.
	for _, w := range [][2]int{{0, 10_000}, {13, 8191}, {4095, 4097}, {5000, 5000}} {
		ps, cs := plain.Slice(w[0], w[1]), comp.Slice(w[0], w[1])
		if !ps.Equal(cs) {
			t.Fatalf("slice %v differs", w)
		}
		if cs.Len() != w[1]-w[0] {
			t.Fatalf("slice %v Len = %d", w, cs.Len())
		}
	}
	// Nested slicing composes windows.
	n1 := comp.Slice(1000, 9000).Slice(500, 600)
	n2 := plain.Slice(1500, 1600)
	if !n1.Equal(n2) {
		t.Fatal("nested slice differs")
	}
	// Gather with an arbitrary index list.
	idx := make([]int32, 500)
	for i := range idx {
		idx[i] = int32(rng.Intn(10_000))
	}
	if !plain.Gather(nil, idx).Equal(comp.Gather(nil, idx)) {
		t.Fatal("gather differs")
	}
	// A fresh slice of the encoded payload starts undecoded; forcing the
	// fallback adds exactly the window's decode buffer to the accounting.
	pre := comp.Slice(0, 4096)
	before := pre.MemBytes()
	_ = pre.Uint32s() // force the decode fallback
	if after := pre.MemBytes(); after != before+4096*4 {
		t.Fatalf("decoded view MemBytes = %d, want %d", after, before+4096*4)
	}
}

func TestCompressRelationAndConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pay := testPayloads(rng, 10_000)
	words := []string{"ok", "warn", "err"}
	strs := make([]string, 10_000)
	for i := range strs {
		strs[i] = words[int(pay["runs"][i])%len(words)]
	}
	f64 := make([]float64, 10_000)
	for i := range f64 {
		f64[i] = rng.Float64()
	}
	plain := MustNewRelation("t",
		NewUint32("a", pay["runs"]),
		NewUint32("b", pay["wide"]),
		NewString("s", strs),
		NewFloat64("f", f64),
	)
	comp := plain.Compress()
	if !comp.HasEncoded() {
		t.Fatal("Compress produced no encoded columns")
	}
	if comp.MemBytes() >= plain.MemBytes() {
		t.Fatalf("compressed relation MemBytes %d not below plain %d", comp.MemBytes(), plain.MemBytes())
	}
	if comp.MustColumn("b").Encoding() != EncNone {
		t.Fatal("incompressible wide column should stay plain")
	}
	if !plain.Equal(comp) {
		t.Fatal("compressed relation differs from plain")
	}
	if m := comp.Materialize(); !plain.Equal(m) || m.HasEncoded() {
		t.Fatal("Materialize did not round-trip")
	}
	// Concat over compressed slices (morsel reassembly) matches plain.
	var pparts, cparts []*Relation
	for lo := 0; lo < 10_000; lo += 1111 {
		hi := lo + 1111
		if hi > 10_000 {
			hi = 10_000
		}
		pparts = append(pparts, plain.Slice(lo, hi))
		cparts = append(cparts, comp.Slice(lo, hi))
	}
	pc, err := Concat(nil, pparts)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := Concat(nil, cparts)
	if err != nil {
		t.Fatal(err)
	}
	if !pc.Equal(cc) {
		t.Fatal("Concat over compressed slices differs")
	}
	info := comp.StorageInfo()
	if len(info) != 4 {
		t.Fatalf("StorageInfo: %d columns", len(info))
	}
	for _, cs := range info {
		if cs.Name == "a" && (cs.Encoding == EncNone || cs.Ratio() <= 2) {
			t.Fatalf("runs column: encoding %s ratio %.2f", cs.Encoding, cs.Ratio())
		}
	}
}

func TestEncodeAutoPicksSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pay := testPayloads(rng, 10_000)
	if e := EncodeAuto(pay["runs"], 0); e == nil || e.Encoding() != EncDictRLE {
		t.Fatalf("runs payload: got %v", e)
	}
	if e := EncodeAuto(pay["clustered"], 0); e == nil || e.Encoding() == EncBitPack {
		t.Fatalf("clustered payload should prefer FoR/RLE, got %v", e)
	}
	if e := EncodeAuto(pay["wide"], 0); e != nil {
		t.Fatalf("wide random payload should not compress, got %s", e.Encoding())
	}
}
