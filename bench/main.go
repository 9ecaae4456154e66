// Command bench is the repository's benchmark: four closed-loop workloads,
// end-to-end latency and throughput checked against a reference evaluator,
// and with -trace 1 a per-layer decomposition. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metricDef mirrors one entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	exact  bool    // a count that repeats bit for bit at a fixed seed
}

// endToEnd are the metrics a caller of the system sees; only the untraced run
// produces them. error_share is printed with them but is not a bounded
// metric: it is 0 on a correct run, and a share of 0 has no relative bound.
// Any failed, shed or wrong-answer operation instead fails the run through
// "correct" and "failed".
var endToEnd = []metricDef{
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

type config struct {
	workload string
	seed     uint64
	window   time.Duration
	settle   time.Duration
	setups   int
	trace    bool
	traceOut string
	repeat   int
	sizes    sizes
}

// environment is printed once per run, before the results.
type environment struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	SettleS    float64 `json:"settle_s"`
	SetupTimes int     `json:"setup_times"`
	Traced     bool    `json:"traced"`
}

// commit is set by run.sh when the checkout is a repository.
var commit = "unknown"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	fs.Uint64Var(&cfg.seed, "seed", 42, "seed for keys, literals and the order of operations (never sizes)")
	fs.Float64Var(&seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer decomposition instead of the end-to-end run")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "file the spans are written to (default .bench_build/trace-<workload>.jsonl)")
	fs.IntVar(&cfg.repeat, "repeat", 1, "run the set this many times and compare the end-to-end metrics against their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.settle = settle
	cfg.setups = setupTimes
	cfg.trace = trace != 0
	cfg.sizes = fullSizes

	var selected []*workload
	if cfg.workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		w, err := findWorkload(cfg.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []*workload{w}
	}

	host, _ := os.Hostname() // a missing name is reported as empty
	env, _ := json.Marshal(map[string]any{"env": environment{
		Host: host, NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit,
		Seed: cfg.seed, WindowS: cfg.window.Seconds(), SettleS: settle.Seconds(), SetupTimes: setupTimes, Traced: cfg.trace,
	}})
	fmt.Fprintf(stdout, "%s\n", env)

	ctx := context.Background()
	if cfg.repeat > 1 {
		return repeat(ctx, selected, cfg, stdout, stderr)
	}
	results := map[string]outcome{}
	ok := true
	for _, w := range selected {
		res, err := runOne(ctx, w, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		results[w.name] = res
		ok = ok && res.Correct
	}
	// The last line is the machine-readable result: for one workload the
	// object the driver reads, for several one such object per workload.
	var last []byte
	if len(selected) == 1 {
		last, _ = json.Marshal(results[selected[0].name])
	} else {
		last, _ = json.Marshal(results)
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !ok {
		return 1
	}
	return 0
}

func runOne(ctx context.Context, w *workload, cfg config, out io.Writer) (outcome, error) {
	if cfg.trace {
		return runTraced(ctx, w, cfg, out)
	}
	return runUntraced(ctx, w, cfg, out)
}

// repeat is the agreement test: the whole set n times, then per workload and
// end-to-end metric the spread of the runs relative to their median, against
// the metric's bound. It fails when a spread exceeds its bound or any
// operation failed.
func repeat(ctx context.Context, selected []*workload, cfg config, stdout, stderr io.Writer) int {
	values := map[string][]float64{}
	ok := true
	for n := 0; n < cfg.repeat; n++ {
		fmt.Fprintf(stdout, "# run %d of %d\n", n+1, cfg.repeat)
		for _, w := range selected {
			res, err := runUntraced(ctx, w, cfg, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			ok = ok && res.Correct
			for _, m := range endToEnd {
				key := w.name + " " + m.Name
				values[key] = append(values[key], res.Metrics[m.Name].Value)
			}
		}
	}
	fmt.Fprintf(stdout, "# agreement over %d runs: (max-min)/median against the bound\n", cfg.repeat)
	for _, w := range selected {
		for _, m := range endToEnd {
			v := values[w.name+" "+m.Name]
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			spread := (hi - lo) / median(v)
			verdict := "ok"
			if spread > m.Bound {
				verdict = "EXCEEDED"
				ok = false
			}
			fmt.Fprintf(stdout, "%-13s %-10s median=%.6f %s spread=%.2f%% bound=%.0f%% %s\n",
				w.name, m.Name, median(v), m.Unit, 100*spread, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
