package swat_test

// Merge-path benchmarks: rolling exported summaries together, the
// aggregator's side of the distributed roll-up flow.

import (
	"testing"

	swat "github.com/streamsum/swat"
)

// mergeBenchSummaries exports two warm same-geometry trees, the
// aligned-merge fast path an aggregator sees from symmetric edges.
func mergeBenchSummaries(b *testing.B, n, k int) (*swat.Summary, *swat.Summary) {
	b.Helper()
	mk := func(seed int64) *swat.Summary {
		tree, err := swat.NewTree(swat.TreeOptions{WindowSize: n, Coefficients: k})
		if err != nil {
			b.Fatal(err)
		}
		src := swat.Uniform(seed)
		for i := 0; i < 3*n; i++ {
			tree.Update(src.Next())
		}
		return tree.Export()
	}
	return mk(1), mk(2)
}

func benchTreeMerge(b *testing.B, n, k int) {
	sa, sb := mergeBenchSummaries(b, n, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := swat.MergeSummaries(sa, sb, swat.MergeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeMerge1k(b *testing.B)  { benchTreeMerge(b, 1<<10, 4) }
func BenchmarkTreeMerge64k(b *testing.B) { benchTreeMerge(b, 1<<16, 4) }

// BenchmarkTreeMergeSkewed measures the reconciliation path: the lagging
// summary is fast-forwarded and the result carries taint spans.
func BenchmarkTreeMergeSkewed(b *testing.B) {
	const n = 1 << 10
	sa, _ := mergeBenchSummaries(b, n, 4)
	tree, err := swat.NewTree(swat.TreeOptions{WindowSize: n, Coefficients: 4})
	if err != nil {
		b.Fatal(err)
	}
	src := swat.Uniform(3)
	for i := 0; i < 3*n-17; i++ {
		tree.Update(src.Next())
	}
	sb := tree.Export()
	opts := swat.MergeOptions{ValueLo: 0, ValueHi: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := swat.MergeSummaries(sa, sb, opts); err != nil {
			b.Fatal(err)
		}
	}
}
