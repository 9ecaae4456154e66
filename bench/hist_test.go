package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// TestHistogramQuantile: the bucketed quantile stays within a bucket's width
// (1.6%) of the exact one.
func TestHistogramQuantile(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var h histogram
	var exact []float64
	for i := 0; i < 5000; i++ {
		d := time.Duration(math.Exp(r.NormFloat64()*0.7) * float64(3*time.Millisecond))
		h.add(d)
		exact = append(exact, float64(d)/float64(time.Millisecond))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
		want := exact[int(q*float64(len(exact)-1))]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.016 {
			t.Errorf("quantile(%v) = %v, exact %v", q, got, want)
		}
	}
}
