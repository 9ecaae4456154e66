// Command dqobench regenerates the paper's evaluation — Figure 4 (Section
// 4.2, grouping performance) and Figure 5 (Section 4.3, DQO vs SQO) — plus
// the experiments this repository adds to test the paper's claims.
//
// Usage:
//
//	dqobench -experiment figure4 [-n 100000000] [-quadrant unsorted-dense] [-zoom] [-repeats 3]
//	dqobench -experiment figure5 [-execute]
//	dqobench -experiment ablations [-n 10000000]
//	dqobench -experiment plantier [-repeats 25]
//	dqobench -experiment compress [-n 4000000] [-repeats 3]
//	dqobench -experiment all
//	dqobench -calibrate
//
// figure4 reproduces Section 4.2 (grouping performance, four datasets);
// figure5 reproduces Section 4.3 (DQO vs SQO improvement factors; with
// -execute the winning plans are also run and timed); ablations runs the
// A1-A5 design-choice sweeps of DESIGN.md; plantier sweeps the planning
// tiers (greedy, beam-capped Deep, full Deep) over a two-join corpus and
// reports the planning-time vs execution-time Pareto frontier; compress
// sweeps the direct-on-compressed kernels (zone-map skipping, run-aware RLE
// selection/aggregation, delta-space packed comparison) against their
// decoded twins over cardinality × skew × clustering; -calibrate fits the
// calibrated cost model to this machine and prints its coefficients.
//
// figure4, plantier and compress print one PASS or FAIL line per acceptance
// check, and dqobench exits 1 when any check failed. plantier and compress
// always write a BENCH_<experiment>.json artifact; -json writes one for
// figure4, figure5 and ablations too.
//
// The serving layer, spilling, memory budgets and parallel scaling are the
// system's questions rather than the paper's: the repository benchmark (bash
// bench/run.sh --workload serve-point|budget-spill) and the tests under
// go test ./... answer them, and go test -bench Scaling . times the parallel
// kernels.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"

	"dqo/internal/benchkit"
	"dqo/internal/cost"
	"dqo/internal/hashtable"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "figure4 | figure5 | ablations | plantier | compress | all")
		n          = flag.Int("n", 100_000_000, "figure4/ablation dataset size (paper: 100M)")
		quadrant   = flag.String("quadrant", "", "restrict figure4 to one quadrant (e.g. unsorted-dense)")
		zoom       = flag.Bool("zoom", false, "add the unsorted-sparse small-group zoom (paper's inset)")
		repeats    = flag.Int("repeats", 1, "timing repeats per figure4 point (min is reported)")
		execute    = flag.Bool("execute", false, "figure5: also execute and time the winning plans")
		morsel     = flag.Int("morsel", 0, "figure5 -execute: executor morsel size in rows (0 = default)")
		seed       = flag.Uint64("seed", 42, "dataset seed")
		calibrate  = flag.Bool("calibrate", false, "fit the calibrated cost model to this machine and print its coefficients")
		csvPath    = flag.String("csv", "", "figure4: also write the measured series to this CSV file")
		jsonOut    = flag.Bool("json", false, "also write BENCH_<experiment>.json with the machine-readable rows")
	)
	flag.Parse()

	if *calibrate {
		m := cost.Measure(1 << 21)
		fmt.Println("# calibrated cost model coefficients fitted to this machine (ns/row):")
		fmt.Printf("insert   %-14s %6.2f\n", "chained", m.InsertNS)
		for _, f := range hashtable.Funcs() {
			fmt.Printf("hashfunc %-14s %6.2f\n", f, m.HashNS[f])
		}
		fmt.Printf("radix %.2f  cmp(log) %.2f  sph %.2f  og %.2f  bs(log) %.2f  cache(log) %.2f\n",
			m.RadixRowNS, m.CmpRowNS, m.SPHRowNS, m.OGRowNS, m.BSRowLogNS, m.CacheNS)
		return
	}

	run := func(name string) ([]benchkit.Check, error) {
		switch name {
		case "figure4":
			return runFigure4(*n, *quadrant, *zoom, *repeats, *seed, *csvPath, *jsonOut)
		case "figure5":
			return runFigure5(*execute, *morsel, *seed, *jsonOut)
		case "ablations":
			return runAblations(*n, *seed, *jsonOut)
		case "plantier":
			return runPlanTier(*repeats, *seed)
		default:
			return runCompress(*n, *repeats, *seed)
		}
	}
	names := []string{"figure5", "figure4", "ablations", "plantier", "compress"}
	if *experiment != "all" {
		if !slices.Contains(names, *experiment) {
			fmt.Fprintf(os.Stderr, "dqobench: unknown experiment %q\n", *experiment)
			os.Exit(2)
		}
		names = []string{*experiment}
	}
	failed := 0
	for _, name := range names {
		fmt.Printf("\n==== %s ====\n", name)
		checks, err := run(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dqobench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if len(checks) > 0 {
			fmt.Println("\n# acceptance checks:")
		}
		for _, c := range checks {
			fmt.Println(c)
			if !c.OK {
				failed++
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "dqobench: %d acceptance check(s) failed\n", failed)
		os.Exit(1)
	}
}

// writeArtifact writes one BENCH_<name>.json machine-readable artifact.
func writeArtifact(name string, cfg, rows any, checks []benchkit.Check) error {
	path := "BENCH_" + name + ".json"
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := benchkit.BenchDoc{Experiment: name, Config: cfg, Rows: rows, Checks: checks}
	if err := benchkit.WriteBenchJSON(f, doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("# artifact written to %s\n", path)
	return nil
}

func runFigure4(n int, quadrant string, zoom bool, repeats int, seed uint64, csvPath string, jsonOut bool) ([]benchkit.Check, error) {
	cfg := benchkit.DefaultFigure4(n)
	cfg.Quadrant = quadrant
	cfg.Zoom = zoom
	cfg.Repeats = repeats
	cfg.Seed = seed
	rows, err := benchkit.RunFigure4(cfg, os.Stdout)
	if err != nil {
		return nil, err
	}
	checks := benchkit.CheckFigure4Shape(rows)
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := benchkit.WriteCSV(rows, f); err != nil {
			return nil, err
		}
		fmt.Printf("# series written to %s\n", csvPath)
	}
	if jsonOut {
		return checks, writeArtifact("figure4", cfg, rows, checks)
	}
	return checks, nil
}

func runFigure5(execute bool, morsel int, seed uint64, jsonOut bool) ([]benchkit.Check, error) {
	cfg := benchkit.DefaultFigure5()
	cfg.Execute = execute
	cfg.MorselSize = morsel
	cfg.Seed = seed
	cells, err := benchkit.RunFigure5(cfg, os.Stdout)
	if err != nil || !jsonOut {
		return nil, err
	}
	return nil, writeArtifact("figure5", cfg, cells, nil)
}

func runAblations(n int, seed uint64, jsonOut bool) ([]benchkit.Check, error) {
	// Ablations run at a tenth of the figure4 scale by default: they sweep
	// many variants.
	an := n / 10
	if an < 100000 {
		an = 100000
	}
	ht, err := benchkit.RunAblationHashTable(an, 10000, seed, os.Stdout)
	if err != nil {
		return nil, err
	}
	fmt.Println()
	srt, err := benchkit.RunAblationSort(an, 10000, seed, os.Stdout)
	if err != nil {
		return nil, err
	}
	fmt.Println()
	par, err := benchkit.RunAblationParallel(an, 10000, runtime.GOMAXPROCS(0), seed, os.Stdout)
	if err != nil {
		return nil, err
	}
	fmt.Println()
	eng, err := benchkit.RunAblationEngine(an, 10000, seed, os.Stdout)
	if err != nil {
		return nil, err
	}
	fmt.Println()
	avr, err := benchkit.RunAblationAV(benchkit.DefaultFigure5(), os.Stdout)
	if err != nil || !jsonOut {
		return nil, err
	}
	rows := map[string]any{
		"hashtable": ht, "sort": srt, "parallel": par, "engine": eng, "av": avr,
	}
	return nil, writeArtifact("ablations", map[string]any{"n": an, "seed": seed}, rows, nil)
}

func runPlanTier(repeats int, seed uint64) ([]benchkit.Check, error) {
	cfg := benchkit.DefaultPlanTier()
	cfg.Seed = seed
	if repeats > 1 {
		cfg.PlanRepeats = repeats
	}
	report, err := benchkit.RunPlanTier(cfg, os.Stdout)
	if err != nil {
		return nil, err
	}
	// The Pareto artifact is the experiment's deliverable; write it always.
	return report.Checks, writeArtifact("plantier", report.Config, report.Rows, report.Checks)
}

func runCompress(n int, repeats int, seed uint64) ([]benchkit.Check, error) {
	// -n is the figure4 scale (100M default); the compress sweep times nine
	// kernels per grid point, so cap it at 4M and scale down with small
	// explicit -n values.
	const compressCap = 4_000_000
	if n <= 0 || n > compressCap {
		n = compressCap
	}
	cfg := benchkit.DefaultCompress(n)
	cfg.Seed = seed
	if repeats > 1 {
		cfg.Repeats = repeats
	}
	rows, err := benchkit.RunCompress(cfg, os.Stdout)
	if err != nil {
		return nil, err
	}
	// The encoded-vs-decoded artifact is the experiment's deliverable;
	// write it always.
	checks := benchkit.CheckCompressShape(rows)
	return checks, writeArtifact("compress", cfg, rows, checks)
}
