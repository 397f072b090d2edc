package swat_test

// Serve-side benchmarks: the histogram baseline's cached versus cold
// query cost.

import (
	"testing"

	swat "github.com/streamsum/swat"
)

// fixedQuery is the paper's fixed-mode workload: the same M=16
// exponential query evaluated at every query instant.
func fixedQuery(b *testing.B) swat.Query {
	b.Helper()
	q, err := swat.NewQuery(swat.Exponential, 0, 16, 0)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkHistogramQuery compares the Guha–Koudas baseline's repeated
// fixed-query cost with and without the query cache: cold pays a full
// histogram construction per query (an arrival between queries
// invalidates), cached reuses one construction per window generation.
func BenchmarkHistogramQuery(b *testing.B) {
	newWarmHist := func(b *testing.B, n int) *swat.Histogram {
		h, err := swat.NewHistogram(swat.HistogramOptions{WindowSize: n, Buckets: 30, Epsilon: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		src := swat.Weather(4)
		for i := 0; i < n; i++ {
			h.Update(src.Next())
		}
		return h
	}
	q := fixedQuery(b)
	for _, n := range []int{256, 1024} {
		b.Run("cold/"+sizeName(n), func(b *testing.B) {
			h := newWarmHist(b, n)
			src := swat.Weather(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Update(src.Next())
				if _, err := swat.ApproxInnerProduct(h, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("cached/"+sizeName(n), func(b *testing.B) {
			h := newWarmHist(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := swat.ApproxInnerProduct(h, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
