package swat_test

// Micro-benchmarks of the primitive operations the paper's complexity
// analysis covers (§2.6): O(1) amortized updates, polylogarithmic
// queries, and the expensive histogram rebuild of the baseline. The
// paper's figures and tables are not benchmarked here: TestRunAllQuick
// (internal/experiments) regenerates each at Quick scale and pins its
// rows byte for byte, and cmd/swatbench runs them at paper scale.

import (
	"testing"

	swat "github.com/streamsum/swat"
)

func newWarmTree(b *testing.B, n int) *swat.Tree {
	b.Helper()
	tree, err := swat.NewTree(swat.TreeOptions{WindowSize: n})
	if err != nil {
		b.Fatal(err)
	}
	src := swat.Uniform(1)
	for i := 0; i < 2*n; i++ {
		tree.Update(src.Next())
	}
	return tree
}

// BenchmarkTreeUpdate measures the paper's O(1) amortized per-arrival
// maintenance cost at several window sizes.
func BenchmarkTreeUpdate(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) {
			tree := newWarmTree(b, n)
			src := swat.Uniform(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.Update(src.Next())
			}
		})
	}
}

// BenchmarkTreePointQuery measures the O(log N) point-query path.
func BenchmarkTreePointQuery(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) {
			tree := newWarmTree(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.PointQuery(i % n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeInnerProduct measures inner-product evaluation for the
// paper's O(M + log² N) bound at M = 16: the uncompiled path, a node
// cover and per-age reconstruction on every evaluation.
func BenchmarkTreeInnerProduct(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) {
			tree := newWarmTree(b, n)
			q := fixedQuery(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := swat.ApproxInnerProduct(tree, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeRangeQuery measures full-window range queries.
func BenchmarkTreeRangeQuery(b *testing.B) {
	tree := newWarmTree(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.RangeQuery(50, 25, 0, 1023); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramUpdate measures the baseline's O(1) arrival cost.
func BenchmarkHistogramUpdate(b *testing.B) {
	h, err := swat.NewHistogram(swat.HistogramOptions{WindowSize: 1024, Buckets: 30, Epsilon: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	src := swat.Uniform(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Update(src.Next())
	}
}

// BenchmarkHistogramBuild measures the baseline's expensive query-time
// histogram construction — the other side of the Fig. 6(b) comparison.
func BenchmarkHistogramBuild(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			h, err := swat.NewHistogram(swat.HistogramOptions{WindowSize: n, Buckets: 30, Epsilon: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			src := swat.Weather(4)
			for i := 0; i < n; i++ {
				h.Update(src.Next())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWaveletForward measures one forward transform level.
func BenchmarkWaveletForward(b *testing.B) {
	src := swat.Uniform(5)
	sig := make([]float64, 1024)
	for i := range sig {
		sig[i] = src.Next()
	}
	for _, basis := range []*swat.Basis{swat.Haar, swat.DB4} {
		b.Run(basis.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := basis.Forward(sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicationQuery measures one SWAT-ASR query at a leaf of a
// 15-node tree in the cached steady state.
func BenchmarkReplicationQuery(b *testing.B) {
	top, err := swat.CompleteBinaryTree(15)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := swat.NewReplication(top, 64)
	if err != nil {
		b.Fatal(err)
	}
	src := swat.Weather(6)
	for i := 0; i < 64; i++ {
		sys.OnData(src.Next())
	}
	sys.OnPhaseEnd()
	q, err := swat.NewQuery(swat.Linear, 0, 8, 50)
	if err != nil {
		b.Fatal(err)
	}
	leaf := swat.NodeID(14)
	// Warm the replication scheme toward the leaf.
	for p := 0; p < 4; p++ {
		for i := 0; i < 5; i++ {
			if _, err := sys.OnQuery(leaf, q); err != nil {
				b.Fatal(err)
			}
		}
		sys.OnPhaseEnd()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.OnQuery(leaf, q); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string {
	switch n {
	case 256:
		return "N=256"
	case 1024:
		return "N=1024"
	case 4096:
		return "N=4096"
	default:
		return "N=?"
	}
}

// BenchmarkMonitorCorrelation measures a summary-based correlation scan
// over 32 streams.
func BenchmarkMonitorCorrelation(b *testing.B) {
	mon, err := swat.NewMonitor(swat.MonitorOptions{WindowSize: 128, Coefficients: 8})
	if err != nil {
		b.Fatal(err)
	}
	const streams = 32
	for i := 0; i < streams; i++ {
		if err := mon.Add(sizeName(256) + string(rune('a'+i))); err != nil {
			b.Fatal(err)
		}
	}
	src := swat.Uniform(9)
	vals := make([]float64, streams)
	for t := 0; t < 512; t++ {
		for i := range vals {
			vals[i] = src.Next()
		}
		if err := mon.ObserveAll(vals); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Correlated(128, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorIngest measures batched multi-stream ingestion — 64
// streams fed 64 synchronized rows per iteration — for one shard
// versus one shard per core, reported as ns per observed value.
func BenchmarkMonitorIngest(b *testing.B) {
	const streams, rows = 64, 64
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{"shards=NumCPU", 0}, // 0 → GOMAXPROCS
	} {
		b.Run(cfg.name, func(b *testing.B) {
			mon, err := swat.NewMonitor(swat.MonitorOptions{
				WindowSize: 1024, Shards: cfg.shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer mon.Close()
			for i := 0; i < streams; i++ {
				if err := mon.Add(string(rune('a'+i/26)) + string(rune('a'+i%26))); err != nil {
					b.Fatal(err)
				}
			}
			src := swat.Uniform(7)
			batch := make([][]float64, rows)
			for t := range batch {
				batch[t] = make([]float64, streams)
				for i := range batch[t] {
					batch[t][i] = src.Next()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += streams * rows {
				if err := mon.ObserveAllBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkContinuousUpdate measures one arrival fan-out across 64
// standing queries.
func BenchmarkContinuousUpdate(b *testing.B) {
	tree, err := swat.NewTree(swat.TreeOptions{WindowSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := swat.NewContinuous(tree)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		q, err := swat.NewQuery(swat.Exponential, i%128, 4, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Subscribe(q, swat.SubscribeOptions{MinChange: 1e9}, func(swat.ContinuousResult) {}); err != nil {
			b.Fatal(err)
		}
	}
	src := swat.Uniform(10)
	for i := 0; i < 512; i++ {
		eng.Update(src.Next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Update(src.Next())
	}
}

// BenchmarkForecast measures summary-based predictors.
func BenchmarkForecast(b *testing.B) {
	tree := newWarmTree(b, 1024)
	b.Run("ewma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := swat.ForecastEWMA(tree, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("holt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := swat.ForecastHolt(tree, 16, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}
