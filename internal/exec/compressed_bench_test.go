package exec

import (
	"context"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/storage"
)

// compressedBenchRel builds the RLE-friendly benchmark table: a clustered
// low-cardinality skewed key column plus an int64 payload, re-encoded into
// compressed segments.
func compressedBenchRel(tb testing.TB, n int) *storage.Relation {
	tb.Helper()
	rel := datagen.CompressRelation("bench", 42, n, 8, 1.1, true).Compress()
	if !rel.HasEncoded() {
		tb.Fatal("bench relation did not compress")
	}
	return rel
}

// BenchmarkScanCompressed measures the decode-once compressed scan against
// the plain scan of the identical logical table, through the full morsel
// executor. The compressed scan pays one sequential segment decode on the
// first Next and emits zero-copy views after that, so the two should track
// each other closely.
func BenchmarkScanCompressed(b *testing.B) {
	const n = 1 << 18
	comp := compressedBenchRel(b, n)
	plain := comp.Materialize()
	for _, bc := range []struct {
		name string
		rel  *storage.Relation
		mk   func(*storage.Relation) Operator
	}{
		{"plain", plain, func(r *storage.Relation) Operator { return NewScan(Text("scan"), r) }},
		{"compressed", comp, func(r *storage.Relation) Operator { return NewCompressedScan(Text("cscan"), r) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(comp.MemBytes()))
			for i := 0; i < b.N; i++ {
				ec := NewExecContext(context.Background(), 4096, 0)
				out, err := Run(ec, bc.mk(bc.rel))
				if err != nil {
					b.Fatal(err)
				}
				if out.NumRows() != n {
					b.Fatalf("rows = %d", out.NumRows())
				}
			}
		})
	}
}

// BenchmarkFilterRLE measures the direct-on-compressed range filter — zone
// maps answer whole segments, RLE runs decide once per run — against its
// decode-fallback twin (the same compressed scan feeding a row-at-a-time
// predicate), on a clustered dictionary-RLE column where the zone maps skip.
func BenchmarkFilterRLE(b *testing.B) {
	const (
		n   = 1 << 18
		phi = 2 // key <= 2 out of 8 distinct values
	)
	comp := compressedBenchRel(b, n)
	pred := expr.Bin{Op: expr.OpLe, L: expr.Col{Name: "key"}, R: expr.IntLit{V: phi}}
	for _, bc := range []struct {
		name string
		mk   func() Operator
	}{
		{"decoded", func() Operator { return NewFilter(Text("filter"), NewCompressedScan(Text("cscan"), comp), pred, nil) }},
		{"compressed", func() Operator { return NewCompressedFilter(Text("cfilter"), comp, "key", 0, phi) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var want int
			for i := 0; i < b.N; i++ {
				ec := NewExecContext(context.Background(), 4096, 0)
				out, err := Run(ec, bc.mk())
				if err != nil {
					b.Fatal(err)
				}
				if want == 0 {
					want = out.NumRows()
				}
				if out.NumRows() != want || want == 0 {
					b.Fatalf("rows = %d, want %d > 0", out.NumRows(), want)
				}
			}
		})
	}
}

// TestCompressedScanMorselAllocs guards the compressed scan's morsel-boundary
// contract: after the first Next pays the one-time segment decode, every
// steady-state Next allocates no more than a plain Scan's — the morsel views
// only, never a per-morsel decode buffer.
func TestCompressedScanMorselAllocs(t *testing.T) {
	comp := compressedBenchRel(t, 1<<16)
	plain := comp.Materialize()

	steadyNext := func(op Operator) float64 {
		ec := NewExecContext(context.Background(), 512, 0)
		if err := op.Open(ec); err != nil {
			t.Fatal(err)
		}
		defer op.Close(ec)
		if _, err := op.Next(ec); err != nil { // first morsel: decode + reserve
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := op.Next(ec); err != nil {
				t.Fatal(err)
			}
		})
	}

	base := steadyNext(NewScan(Text("scan"), plain))
	got := steadyNext(NewCompressedScan(Text("cscan"), comp))
	if got > base {
		t.Fatalf("compressed scan allocates %v per morsel, plain scan %v — decode is not one-time", got, base)
	}
}
