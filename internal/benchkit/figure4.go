// Package benchkit is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Section 4) plus the ablations this
// repository adds, printing the same rows/series the paper plots.
package benchkit

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"dqo/internal/datagen"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/xrand"
)

// Figure4Config parameterises the grouping-performance experiment
// (Section 4.2, Figure 4): five grouping implementations, four datasets of
// N uniformly distributed uint32 keys (sortedness × density), swept over
// the number of groups.
type Figure4Config struct {
	N        int    // rows per dataset (paper: 100,000,000)
	Groups   []int  // group-count sweep (paper: 0..40,000)
	Seed     uint64 // dataset seed
	Repeats  int    // timing repeats; the minimum is reported
	Zoom     bool   // add the paper's unsorted-sparse zoom (1..32 groups)
	Quadrant string // restrict to one quadrant ("" = all four)
}

// DefaultFigure4 returns the paper's sweep at a configurable scale.
func DefaultFigure4(n int) Figure4Config {
	return Figure4Config{
		N:       n,
		Groups:  []int{1, 10, 100, 500, 1000, 2500, 5000, 10000, 20000, 30000, 40000},
		Seed:    42,
		Repeats: 1,
	}
}

// Figure4Row is one measured point of the figure.
type Figure4Row struct {
	Quadrant  string
	Algorithm string
	Groups    int
	Millis    float64
}

// figure4Algorithms returns the algorithms the paper plots per quadrant:
// HG/OG/SOG everywhere OG applies (sorted), SPHG on dense data, BSG on
// sparse data (where SPHG is impossible).
func figure4Algorithms(q datagen.Quadrant) []physical.GroupKind {
	algs := []physical.GroupKind{physical.HG, physical.SOG}
	if q.Sorted {
		algs = append(algs, physical.OG)
	}
	if q.Dense {
		algs = append(algs, physical.SPHG)
	} else {
		algs = append(algs, physical.BSG)
	}
	return algs
}

// RunFigure4 executes the sweep and streams rows to w as they are measured
// (one line per point). It returns all rows for further processing.
func RunFigure4(cfg Figure4Config, w io.Writer) ([]Figure4Row, error) {
	if cfg.Repeats < 1 {
		cfg.Repeats = 1
	}
	quads := datagen.Quadrants()
	if cfg.Quadrant != "" {
		q, err := datagen.ParseQuadrant(cfg.Quadrant)
		if err != nil {
			return nil, err
		}
		quads = []datagen.Quadrant{q}
	}
	var rows []Figure4Row
	fmt.Fprintf(w, "# Figure 4: grouping runtime [ms], N=%d, repeats=%d\n", cfg.N, cfg.Repeats)
	fmt.Fprintf(w, "%-16s %-6s %8s %12s\n", "quadrant", "alg", "groups", "runtime_ms")
	for _, q := range quads {
		groups := cfg.Groups
		if cfg.Zoom && !q.Sorted && !q.Dense {
			groups = append([]int{1, 2, 4, 8, 12, 14, 16, 24, 32}, groups...)
		}
		for _, g := range groups {
			if g > cfg.N {
				continue
			}
			keys := datagen.GroupingKeys(cfg.Seed, cfg.N, g, q)
			vals := makeVals(cfg.Seed, cfg.N)
			dom := groundDomain(keys, g, q)
			for _, alg := range figure4Algorithms(q) {
				ms, err := timeGrouping(alg, keys, vals, dom, cfg.Repeats)
				if err != nil {
					return nil, fmt.Errorf("benchkit: %s on %s g=%d: %w", alg, q, g, err)
				}
				row := Figure4Row{Quadrant: q.String(), Algorithm: alg.String(), Groups: g, Millis: ms}
				rows = append(rows, row)
				fmt.Fprintf(w, "%-16s %-6s %8d %12.2f\n", row.Quadrant, row.Algorithm, row.Groups, row.Millis)
			}
		}
	}
	return rows, nil
}

// makeVals builds the aggregate payload column once per dataset size.
func makeVals(seed uint64, n int) []int64 {
	r := xrand.New(seed ^ 0x76a1)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.Uint64n(1000))
	}
	return vals
}

// groundDomain returns the exact key domain without a distinct scan (the
// generator guarantees g distinct values).
func groundDomain(keys []uint32, g int, q datagen.Quadrant) props.Domain {
	mn, mx := keys[0], keys[0]
	for _, k := range keys {
		if k < mn {
			mn = k
		}
		if k > mx {
			mx = k
		}
	}
	return props.Domain{
		Known: true, Lo: uint64(mn), Hi: uint64(mx), Distinct: int64(g),
		Dense: uint64(mx)-uint64(mn)+1 == uint64(g),
	}
}

func timeGrouping(alg physical.GroupKind, keys []uint32, vals []int64, dom props.Domain, repeats int) (float64, error) {
	best := -1.0
	for r := 0; r < repeats; r++ {
		start := time.Now()
		res, err := physical.Group(alg, keys, vals, dom, physical.GroupOptions{})
		if err != nil {
			return 0, err
		}
		elapsed := float64(time.Since(start).Microseconds()) / 1000.0
		if res == nil || len(res.Keys) == 0 && len(keys) > 0 {
			return 0, fmt.Errorf("empty result")
		}
		if best < 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

// CheckFigure4Shape validates the qualitative claims of Section 4.2 against
// measured rows; a claim whose points were not measured is left out.
func CheckFigure4Shape(rows []Figure4Row) []Check {
	at := func(quadrant, alg string, groups int) (float64, bool) {
		for _, r := range rows {
			if r.Quadrant == quadrant && r.Algorithm == alg && r.Groups == groups {
				return r.Millis, true
			}
		}
		return 0, false
	}
	maxG := 0
	for _, r := range rows {
		if r.Groups > maxG {
			maxG = r.Groups
		}
	}
	var out []Check
	check := func(what string, ok, applicable bool) {
		if applicable {
			out = append(out, Check{OK: ok, What: what})
		}
	}

	// Sorted & dense: OG and SPHG clearly beat HG; SOG worst (useless re-sort).
	og, ok1 := at("sorted-dense", "OG", maxG)
	sphg, ok2 := at("sorted-dense", "SPHG", maxG)
	hg, ok3 := at("sorted-dense", "HG", maxG)
	sog, ok4 := at("sorted-dense", "SOG", maxG)
	check("sorted-dense: OG and SPHG beat HG", og < hg && sphg < hg, ok1 && ok2 && ok3)
	check("sorted-dense: SOG pays for its useless sort (slowest)", sog > og && sog > hg, ok1 && ok3 && ok4)

	// Sorted & sparse: OG best; BSG grows with group count.
	og, ok1 = at("sorted-sparse", "OG", maxG)
	hg, ok2 = at("sorted-sparse", "HG", maxG)
	bsgSmall, ok3 := at("sorted-sparse", "BSG", 100)
	bsgBig, ok4 := at("sorted-sparse", "BSG", maxG)
	check("sorted-sparse: OG beats HG", og < hg, ok1 && ok2)
	check("sorted-sparse: BSG grows with group count", bsgBig > bsgSmall*1.2, ok3 && ok4)

	// Unsorted & dense: SPHG best and flat; HG grows with groups.
	sphgSmall, ok1 := at("unsorted-dense", "SPHG", 100)
	sphgBig, ok2 := at("unsorted-dense", "SPHG", maxG)
	hgSmall, ok3 := at("unsorted-dense", "HG", 100)
	hgBig, ok4 := at("unsorted-dense", "HG", maxG)
	check("unsorted-dense: SPHG beats HG at max groups", sphgBig < hgBig, ok2 && ok4)
	check("unsorted-dense: HG grows with group count", hgBig > hgSmall*1.15, ok3 && ok4)
	check("unsorted-dense: SPHG roughly flat in group count", sphgBig < sphgSmall*2, ok1 && ok2)

	// Unsorted & sparse: HG wins broadly; BSG wins for very few groups.
	hgBig, ok1 = at("unsorted-sparse", "HG", maxG)
	bsgBig, ok2 = at("unsorted-sparse", "BSG", maxG)
	hgTiny, ok3 := at("unsorted-sparse", "HG", 1)
	bsgTiny, ok4 := at("unsorted-sparse", "BSG", 1)
	check("unsorted-sparse: HG beats BSG at max groups", hgBig < bsgBig, ok1 && ok2)
	check("unsorted-sparse: BSG competitive at 1 group", bsgTiny <= hgTiny*1.5, ok3 && ok4)
	return out
}

// WriteCSV emits the measured rows as CSV (quadrant,algorithm,groups,ms)
// for external plotting of the Figure 4 series.
func WriteCSV(rows []Figure4Row, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"quadrant", "algorithm", "groups", "runtime_ms"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Quadrant, r.Algorithm, strconv.Itoa(r.Groups),
			strconv.FormatFloat(r.Millis, 'f', 3, 64)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
