package benchkit

import (
	"fmt"
	"io"
	"time"

	"dqo/internal/datagen"
	"dqo/internal/storage"
)

// CompressConfig parameterises the compressed-execution experiment: the
// direct-on-compressed kernels (zone-map segment skipping, RLE run-aware
// selection and aggregation, delta-space comparison on packed words) against
// their decoded twins, swept over column cardinality × skew × clustering.
// Low-cardinality clustered columns are where dictionary-RLE runs are long
// and zone maps answer whole segments; high-cardinality uniform columns are
// where no encoding wins and the decode-fallback is the measured path.
type CompressConfig struct {
	N         int       // rows per column
	Cards     []int     // distinct-value sweep
	Skews     []float64 // Zipf exponent sweep (0 = uniform)
	Seed      uint64    // dataset seed
	Repeats   int       // timing repeats; the minimum is reported
	Predicate float64   // range predicate selectivity over the key domain
}

// DefaultCompress returns the default sweep at n rows.
func DefaultCompress(n int) CompressConfig {
	return CompressConfig{
		N:         n,
		Cards:     []int{8, 256, 65536},
		Skews:     []float64{0, 1.1},
		Seed:      42,
		Repeats:   3,
		Predicate: 0.25,
	}
}

// CompressRow is one measured point: one (cardinality, skew, clustering)
// dataset, one operation, decoded vs encoded runtime.
type CompressRow struct {
	Card      int     `json:"card"`
	Skew      float64 `json:"skew"`
	Clustered bool    `json:"clustered"`
	Encoding  string  `json:"encoding"` // chosen by EncodeAuto; "none" = no win
	Ratio     float64 `json:"ratio"`    // plain bytes / encoded bytes
	Op        string  `json:"op"`       // scan | filter | aggregate
	DecodedMS float64 `json:"decoded_ms"`
	EncodedMS float64 `json:"encoded_ms"`
	Speedup   float64 `json:"speedup"`
}

// RunCompress executes the sweep and streams rows to w as they are measured.
func RunCompress(cfg CompressConfig, w io.Writer) ([]CompressRow, error) {
	if cfg.Repeats < 1 {
		cfg.Repeats = 1
	}
	if cfg.Predicate <= 0 || cfg.Predicate > 1 {
		cfg.Predicate = 0.25
	}
	var rows []CompressRow
	fmt.Fprintf(w, "# compress: encoded vs decoded kernels [ms], N=%d, repeats=%d, predicate=%.0f%% of key domain\n",
		cfg.N, cfg.Repeats, cfg.Predicate*100)
	fmt.Fprintf(w, "%-8s %-5s %-9s %-8s %7s %-9s %12s %12s %8s\n",
		"card", "skew", "clustered", "encoding", "ratio", "op", "decoded_ms", "encoded_ms", "speedup")
	for _, card := range cfg.Cards {
		if card > cfg.N {
			continue
		}
		for _, skew := range cfg.Skews {
			for _, clustered := range []bool{false, true} {
				keys := datagen.SkewedKeys(cfg.Seed, cfg.N, card, skew, clustered)
				enc := storage.EncodeAuto(keys, storage.DefaultSegmentRows)
				// The predicate covers the low end of the key domain: on
				// clustered columns that maps to a contiguous row range the
				// zone maps answer without touching payload.
				phi := uint32(float64(card)*cfg.Predicate) - 1
				if float64(card)*cfg.Predicate < 1 {
					phi = 0
				}
				for _, op := range []string{"scan", "filter", "aggregate"} {
					dec := timeKernel(cfg.Repeats, decodedKernel(op, keys, phi))
					encMS := dec
					name, ratio := "none", 1.0
					if enc != nil {
						encMS = timeKernel(cfg.Repeats, encodedKernel(op, enc, phi))
						name, ratio = enc.Encoding().String(), enc.Ratio()
					}
					row := CompressRow{
						Card: card, Skew: skew, Clustered: clustered,
						Encoding: name, Ratio: ratio, Op: op,
						DecodedMS: dec, EncodedMS: encMS, Speedup: dec / encMS,
					}
					rows = append(rows, row)
					fmt.Fprintf(w, "%-8d %-5g %-9t %-8s %6.1fx %-9s %12.3f %12.3f %7.2fx\n",
						row.Card, row.Skew, row.Clustered, row.Encoding, row.Ratio,
						row.Op, row.DecodedMS, row.EncodedMS, row.Speedup)
				}
			}
		}
	}
	return rows, nil
}

// sink defeats dead-code elimination of the measured kernels.
var sink uint64

// decodedKernel returns the plain-storage twin of each operation: a full
// materialising copy (scan), a branchy range select into a reusable
// selection vector (filter), and a summing loop (aggregate).
func decodedKernel(op string, keys []uint32, phi uint32) func() {
	switch op {
	case "scan":
		dst := make([]uint32, len(keys))
		return func() { copy(dst, keys); sink += uint64(dst[len(dst)-1]) }
	case "filter":
		sel := make([]int32, 0, len(keys))
		return func() {
			sel = sel[:0]
			for i, k := range keys {
				if k <= phi {
					sel = append(sel, int32(i))
				}
			}
			sink += uint64(len(sel))
		}
	default: // aggregate
		return func() {
			var s uint64
			for _, k := range keys {
				s += uint64(k)
			}
			sink += s
		}
	}
}

// encodedKernel returns the direct-on-compressed twin: a segment decode into
// a reusable buffer (scan — what the decode-fallback granule pays), the
// zone-map + run-aware + delta-space SelectRange (filter), and the run-aware
// SumRange (aggregate).
func encodedKernel(op string, enc *storage.Encoded, phi uint32) func() {
	n := enc.Rows()
	switch op {
	case "scan":
		dst := make([]uint32, n)
		return func() { enc.DecodeRange(0, n, dst); sink += uint64(dst[n-1]) }
	case "filter":
		sel := make([]int32, 0, n)
		return func() {
			sel, _ = enc.SelectRange(0, n, 0, phi, sel[:0])
			sink += uint64(len(sel))
		}
	default: // aggregate
		return func() { sink += enc.SumRange(0, n) }
	}
}

// timeKernel reports the best-of-repeats runtime of fn in milliseconds.
func timeKernel(repeats int, fn func()) float64 {
	best := -1.0
	for r := 0; r < repeats; r++ {
		start := time.Now()
		fn()
		// Nanosecond precision: the run-aware RLE kernels finish in
		// sub-microsecond time on low-cardinality columns.
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		if best < 0 || ms < best {
			best = ms
		}
	}
	if best <= 0 {
		best = 1e-6
	}
	return best
}

// CheckCompressShape validates the experiment's acceptance claims against
// measured rows: filter-heavy work on low-cardinality and skewed columns
// must run at least 2x faster on the encoded form, run-aware aggregation
// must beat the summing loop on RLE columns, and every chosen encoding must
// actually shrink its column.
func CheckCompressShape(rows []CompressRow) []Check {
	var out []Check
	check := func(what string, ok, applicable bool) {
		if applicable {
			out = append(out, Check{OK: ok, What: what})
		}
	}

	minCard := 1 << 62
	for _, r := range rows {
		if r.Card < minCard {
			minCard = r.Card
		}
	}
	var lowCardFilter, skewedFilter, rleAgg float64
	var sawLowCard, sawSkewed, sawRLEAgg bool
	ratiosOK, sawEncoded := true, false
	for _, r := range rows {
		if r.Encoding != "none" {
			sawEncoded = true
			if r.Ratio <= 1 {
				ratiosOK = false
			}
		}
		if r.Op != "filter" && r.Op != "aggregate" {
			continue
		}
		if r.Op == "filter" && r.Card == minCard && r.Clustered && r.Encoding != "none" {
			if !sawLowCard || r.Speedup > lowCardFilter {
				lowCardFilter, sawLowCard = r.Speedup, true
			}
		}
		if r.Op == "filter" && r.Skew > 0 && r.Clustered && r.Encoding != "none" {
			if !sawSkewed || r.Speedup > skewedFilter {
				skewedFilter, sawSkewed = r.Speedup, true
			}
		}
		if r.Op == "aggregate" && r.Encoding == "rle" {
			if !sawRLEAgg || r.Speedup > rleAgg {
				rleAgg, sawRLEAgg = r.Speedup, true
			}
		}
	}
	check(fmt.Sprintf("low-cardinality clustered filter >= 2x on encoded form (best %.1fx)", lowCardFilter),
		lowCardFilter >= 2, sawLowCard)
	check(fmt.Sprintf("skewed clustered filter >= 2x on encoded form (best %.1fx)", skewedFilter),
		skewedFilter >= 2, sawSkewed)
	check(fmt.Sprintf("run-aware aggregation beats the summing loop on RLE (best %.1fx)", rleAgg),
		rleAgg > 1, sawRLEAgg)
	check("every chosen encoding shrinks its column", ratiosOK, sawEncoded)
	return out
}
