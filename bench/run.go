package main

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// settle is how long the closed loop runs before the window opens; slices is
// how many parts of the window each metric is taken over; setupTimes is how
// often a run sets the workload up.
const (
	settle     = time.Second
	slices     = 10
	setupTimes = 5
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload's run.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples  int
	medianMS float64 // plain median over the whole window, for the traced run's comparison
	shed     int
	failures []string // first few, with SQL and seed
}

// expectAll fills in the reference answer of every call of the pool.
func expectAll(bp *blueprint) error {
	tables := map[string]*table{}
	for _, t := range bp.tables {
		tables[t.name] = t
	}
	memo := map[string]*expectation{}
	for _, o := range bp.ops {
		for k := range o {
			c := &o[k]
			key := fmt.Sprint(c.st.id, c.args)
			if memo[key] == nil {
				e, err := reference(tables, c.st.q, c.args)
				if err != nil {
					return fmt.Errorf("%s: %w", c.st.q.sql(c.args), err)
				}
				memo[key] = &expectation{expect: e}
			}
			c.want = memo[key]
		}
	}
	return nil
}

// setUp brings a workload up cfg.setups times and keeps the last instance.
// One set-up is data generation, registration, compression, server start,
// sessions, prepares and the warm-up operations; the reported time is the
// median. The reference answers are the benchmark's own checking: they are
// computed once, outside the clock, and shared by the repeats (the same seed
// generates the same pool).
func setUp(ctx context.Context, w *workload, cfg config) (*instance, float64, error) {
	seed, sz := cfg.seed, cfg.sizes
	var times []float64
	var in *instance
	var first *blueprint
	for k := 0; k < cfg.setups; k++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		bp := w.build(seed, sz)
		gen := time.Since(t0)
		if first == nil {
			if err := expectAll(bp); err != nil {
				return nil, 0, err
			}
			first = bp
		}
		for i, o := range bp.ops {
			for j := range o {
				o[j].want = first.ops[i][j].want
			}
		}
		t0 = time.Now()
		var err error
		if in, err = bringUp(ctx, w, bp); err != nil {
			return nil, 0, err
		}
		for i := 0; i < w.warmOps; i++ {
			if _, err := in.runOp(ctx, i%w.clients, i); err != nil {
				in.close()
				return nil, 0, fmt.Errorf("warm-up operation %d (seed %d): %w", i, seed, err)
			}
		}
		times = append(times, (gen + time.Since(t0)).Seconds())
	}
	in.settle = cfg.settle
	return in, median(times), nil
}

// A histogram counts latencies in log-linear buckets: 64 per power of two, so
// a bucket is 1.6% wide at most. Its size is fixed, which keeps the
// benchmark's own live heap small and constant: the collector is paced by the
// engine's data, not by a sample buffer that grows during the run.
type histogram struct {
	counts [40 * 64]uint32 // latencies up to 2^40 ns
	n      int
}

func (h *histogram) add(d time.Duration) {
	ns := uint64(min(max(d, 64), 1<<40-1))
	exp := bits.Len64(ns) - 1
	h.counts[(exp-6)*64+int(ns>>(exp-6))]++ // the top seven bits: a leading one, then the bucket
	h.n++
}

// quantile is the q-quantile in milliseconds, interpolated by rank inside
// the bucket that holds it.
func (h *histogram) quantile(q float64) float64 {
	rank := q * float64(h.n-1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			shift := i/64 - 1 // add stored bucket (exp-6)*64 + the top seven bits
			lo, width := float64(uint64(i%64+64)<<shift), float64(uint64(1)<<shift)
			return (lo + width*(rank-cum+0.5)/float64(c)) / float64(time.Millisecond)
		}
		cum += float64(c)
	}
	return 0
}

// slice is what one client saw during one part of the window.
type slice struct {
	lat         histogram
	first, last time.Duration // completion times of its first and last operation
	attempted   int
	failed      int
	shed        int
}

// clientLog is one client's record of a loop: a slice per part of the window
// and the first few failures in full.
type clientLog struct {
	slices [slices]slice
	errs   []error // the first few failures, inside the window or not
}

// loop drives the closed loop for settle+length: each client issues its next
// operation when the previous one has been answered and checked. Client c runs
// operations c, c+clients, c+2*clients, ... of the stream. An operation is
// booked when it started and ended inside the window, to the part of the
// window it ended in.
func (in *instance) loop(ctx context.Context, length time.Duration) []*clientLog {
	logs := make([]*clientLog, in.w.clients)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := range logs {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := logs[c]
			for i := in.w.warmOps + c; ; i += in.w.clients {
				start := time.Since(begin)
				if start >= in.settle+length {
					break
				}
				lat, err := in.runOp(ctx, c, i)
				end := start + lat
				if err != nil && len(log.errs) < 5 {
					log.errs = append(log.errs, err)
				}
				if start < in.settle || end >= in.settle+length {
					continue
				}
				sl := &log.slices[(end-in.settle)*slices/length]
				sl.attempted++
				switch {
				case err == errShed:
					sl.shed++
					fallthrough
				case err != nil:
					sl.failed++
				default:
					if sl.lat.n == 0 {
						sl.first = end
					}
					sl.last = end
					sl.lat.add(lat)
				}
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// measure runs the untraced closed loop and derives the end-to-end metrics.
func (in *instance) measure(ctx context.Context, length time.Duration, seed uint64) outcome {
	logs := in.loop(ctx, length)
	out := outcome{Correct: true, Metrics: map[string]metric{}}
	var whole histogram
	var p50s, p95s, rates []float64
	for k := 0; k < slices; k++ {
		// Merge the clients' views of slice k.
		var lat histogram
		var rate float64
		for _, log := range logs {
			sl := &log.slices[k]
			out.Attempted += sl.attempted
			out.Failed += sl.failed
			out.shed += sl.shed
			for i, c := range sl.lat.counts {
				lat.counts[i] += c
				whole.counts[i] += c
			}
			lat.n += sl.lat.n
			whole.n += sl.lat.n
			if sl.lat.n > 1 {
				// Completions tile the time between the first and the last.
				rate += float64(sl.lat.n-1) / (sl.last - sl.first).Seconds()
			}
		}
		if lat.n > 0 {
			p50s = append(p50s, lat.quantile(0.5))
			p95s = append(p95s, lat.quantile(0.95))
			rates = append(rates, rate)
		}
	}
	for _, log := range logs {
		for _, err := range log.errs {
			out.failures = append(out.failures, fmt.Sprintf("seed %d: %v", seed, err))
		}
		if len(log.errs) > 0 {
			out.Correct = false
		}
	}
	out.samples = whole.n
	if len(p50s) < slices {
		out.Correct = false // a slice without a completed operation: the window is too short for the workload
		out.Attempted = max(out.Attempted, 1)
		return out
	}
	out.medianMS = whole.quantile(0.5)
	// Each metric is taken per slice of the window (a tenth of it) and the
	// slice at the quiet quartile is reported (latency: lower quartile, rate:
	// upper). The sandbox's disturbances last seconds and only ever slow a
	// slice down, so the quiet slices are the better estimate of the program's
	// own speed; a change that slows the program slows every slice and shows
	// in full.
	out.Metrics["p50_ms"] = metric{quantile(p50s, 0.25), "ms"}
	out.Metrics["p95_ms"] = metric{quantile(p95s, 0.25), "ms"}
	out.Metrics["ops_per_s"] = metric{quantile(rates, 0.75), "1/s"}
	return out
}

// quantile is the q-quantile of v (sorted in place), interpolated between
// the two nearest ranks.
func quantile(v []float64, q float64) float64 {
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	hi := min(lo+1, len(v)-1)
	return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
}

func median(v []float64) float64 {
	return quantile(append([]float64(nil), v...), 0.5)
}

// runUntraced is one workload's end-to-end run: set-up, closed loop, report.
func runUntraced(ctx context.Context, w *workload, cfg config, out io.Writer) (outcome, error) {
	in, setupS, err := setUp(ctx, w, cfg)
	if err != nil {
		return outcome{}, err
	}
	defer in.close()
	res := in.measure(ctx, cfg.window, cfg.seed)
	res.Metrics["setup_s"] = metric{setupS, "s"}
	printEndToEnd(out, w, res)
	return res, nil
}

func printEndToEnd(out io.Writer, w *workload, res outcome) {
	fmt.Fprintf(out, "%-13s samples=%d attempted=%d failed=%d shed=%d error_share=%.6f\n",
		w.name, res.samples, res.Attempted, res.Failed, res.shed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, m := range endToEnd {
		v := res.Metrics[m.Name]
		fmt.Fprintf(out, "  %-12s %14.6f %-5s (bound %+.0f%%, %s is better)\n", m.Name, v.Value, v.Unit, 100*m.Bound, m.Better)
	}
	for _, f := range res.failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}
