package experiments

import (
	"fmt"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/histogram"
	"github.com/streamsum/swat/internal/metrics"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
)

// This file regenerates the centralized experiments of §2.7:
// Fig. 4 (SWAT error behaviour), Fig. 5 (SWAT vs Histogram approximation
// quality), and Fig. 6 (maintenance and query response time).

// timeOp measures the wall-clock duration of f. The Fig. 6 experiments
// report real maintenance and query-response times, so the wall clock
// is the measurement, not incidental nondeterminism; the timing cells
// are marked Timed (and the speedup is a TimedNote), so the golden
// rendering pinned by TestRunAllQuick leaves them out and keeps only
// the deterministic work counts printed beside them. Keeping the only wall-clock reads of the package inside
// this helper keeps the seededrand waiver in one audited place.
func timeOp(f func()) time.Duration {
	start := time.Now() //lint:allow seededrand intentional wall-clock measurement; timings are reported, never golden-compared
	f()
	return time.Since(start) //lint:allow seededrand intentional wall-clock measurement; timings are reported, never golden-compared
}

func init() {
	register("fig4a", fig4a)
	register("fig4b", fig4b)
	register("fig4c", fig4c)
	register("fig5a", func(s Scale) (*Result, error) { return fig5Fixed(s, "fig5a", "real", 0.1, relMetric) })
	register("fig5b", func(s Scale) (*Result, error) { return fig5Fixed(s, "fig5b", "real", 0.1, absMetric) })
	register("fig5c", func(s Scale) (*Result, error) { return fig5Fixed(s, "fig5c", "synthetic", 0.001, relMetric) })
	register("fig5d", func(s Scale) (*Result, error) { return fig5Random(s, "fig5d", "real", query.Linear) })
	register("fig5e", func(s Scale) (*Result, error) { return fig5Random(s, "fig5e", "real", query.Exponential) })
	register("fig5f", fig5f)
	register("fig6a", fig6a)
	register("fig6b", fig6b)
}

// swatSeries runs the Fig. 4(a)/(b) workload: a SWAT tree over synthetic
// data, the same exponential inner-product query executed at every
// arrival, relative error recorded per arrival.
func swatSeries(scale Scale) (*metrics.Series, int, error) {
	const n = 256
	arrivals := 10000 // "observes 10K incoming points"
	if scale == Quick {
		arrivals = 2000
	}
	tree, err := core.New(core.Options{WindowSize: n})
	if err != nil {
		return nil, 0, err
	}
	shadow, err := stream.NewWindow(n)
	if err != nil {
		return nil, 0, err
	}
	src := stream.Uniform(4)
	q, err := query.New(query.Exponential, 0, n/4, 0)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < 2*n; i++ { // warm up
		v := src.Next()
		tree.Update(v)
		shadow.Push(v)
	}
	var series metrics.Series
	for i := 0; i < arrivals; i++ {
		v := src.Next()
		tree.Update(v)
		shadow.Push(v)
		approx, err := query.Approx(tree, q)
		if err != nil {
			return nil, 0, err
		}
		exact, err := query.Exact(shadow, q)
		if err != nil {
			return nil, 0, err
		}
		series.Append(metrics.Relative(approx, exact))
	}
	return &series, arrivals, nil
}

func fig4a(scale Scale) (*Result, error) {
	series, arrivals, err := swatSeries(scale)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:   fmt.Sprintf("Relative error of the fixed exponential query over time (N=256, synthetic, %d arrivals)", arrivals),
		Columns: []string{"time", "relative error (bucket mean)"},
	}
	means, times := series.Downsample(20)
	for i := range means {
		tab.AddRow(fmt.Sprintf("%d", times[i]), f(means[i]))
	}
	var acc metrics.Accumulator
	for _, v := range series.Values() {
		acc.Add(v)
	}
	return &Result{
		ID:          "fig4a",
		Description: "relative error for exponential inner product queries, fixed query mode",
		Tables:      []*Table{tab},
		Notes: []string{
			fmt.Sprintf("mean relative error %.5f, max %.5f (paper: periodic spikes, small average)", acc.Mean(), acc.Max()),
		},
	}, nil
}

func fig4b(scale Scale) (*Result, error) {
	series, arrivals, err := swatSeries(scale)
	if err != nil {
		return nil, err
	}
	cum := series.CumulativeMean()
	tab := &Table{
		Title:   fmt.Sprintf("Cumulative (running mean) relative error over time (N=256, synthetic, %d arrivals)", arrivals),
		Columns: []string{"time", "cumulative error"},
	}
	step := len(cum) / 20
	if step == 0 {
		step = 1
	}
	for i := step - 1; i < len(cum); i += step {
		tab.AddRow(fmt.Sprintf("%d", i), f(cum[i]))
	}
	final := cum[len(cum)-1]
	return &Result{
		ID:          "fig4b",
		Description: "cumulative error for exponential inner product queries, fixed query mode",
		Tables:      []*Table{tab},
		Notes: []string{
			fmt.Sprintf("final cumulative error %.5f (paper: \"quite small, around 0.01\")", final),
		},
	}, nil
}

func fig4c(scale Scale) (*Result, error) {
	const n = 512 // paper: "window size of 512"
	arrivals := 4096
	if scale == Quick {
		arrivals = 1024
	}
	tab := &Table{
		Title:   "Average absolute error vs number of maintained levels (N=512, smooth data)",
		Columns: []string{"levels kept", "min level", "exp query abs err", "linear query abs err"},
	}
	levels := 9 // log2(512)
	notes := []string{}
	for minLevel := 0; minLevel <= levels-1; minLevel++ {
		var expAcc, linAcc metrics.Accumulator
		tree, err := core.New(core.Options{WindowSize: n, MinLevel: minLevel})
		if err != nil {
			return nil, err
		}
		shadow, _ := stream.NewWindow(n)
		src := stream.Weather(7)
		qExp, err := query.New(query.Exponential, 0, n/2, 0)
		if err != nil {
			return nil, err
		}
		qLin, err := query.New(query.Linear, 0, n/2, 0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 2*n; i++ {
			v := src.Next()
			tree.Update(v)
			shadow.Push(v)
		}
		for i := 0; i < arrivals; i++ {
			v := src.Next()
			tree.Update(v)
			shadow.Push(v)
			for _, pair := range []struct {
				q   query.Query
				acc *metrics.Accumulator
			}{{qExp, &expAcc}, {qLin, &linAcc}} {
				approx, err := query.Approx(tree, pair.q)
				if err != nil {
					return nil, err
				}
				exact, err := query.Exact(shadow, pair.q)
				if err != nil {
					return nil, err
				}
				pair.acc.Add(metrics.Absolute(approx, exact))
			}
		}
		tab.AddRow(fmt.Sprintf("%d", levels-minLevel), fmt.Sprintf("%d", minLevel),
			f(expAcc.Mean()), f(linAcc.Mean()))
	}
	notes = append(notes,
		"paper: error grows much faster for the linear query than the exponential one as levels are dropped")
	return &Result{
		ID:          "fig4c",
		Description: "average absolute error under varying number of levels for different query types",
		Tables:      []*Table{tab},
		Notes:       notes,
	}, nil
}

// errMetric selects relative or absolute error.
type errMetric int

const (
	relMetric errMetric = iota
	absMetric
)

func (m errMetric) name() string {
	if m == absMetric {
		return "absolute"
	}
	return "relative"
}

func (m errMetric) eval(approx, exact float64) float64 {
	if m == absMetric {
		return metrics.Absolute(approx, exact)
	}
	return metrics.Relative(approx, exact)
}

// compareConfig drives one SWAT-vs-Histogram error comparison.
type compareConfig struct {
	n, buckets  int
	epsilon     float64
	data        string
	kind        query.Kind
	mode        query.Mode
	queryLen    int
	warm        int
	queryPoints int
	queryEvery  int
	seed        int64
}

// runCompare feeds the same stream to SWAT and the Histogram baseline
// and evaluates the same query sequence against both, returning the mean
// error of each under the given metric.
func runCompare(cfg compareConfig, m errMetric) (swat, hist float64, err error) {
	tree, err := core.New(core.Options{WindowSize: cfg.n})
	if err != nil {
		return 0, 0, err
	}
	h, err := histogram.New(histogram.Options{WindowSize: cfg.n, Buckets: cfg.buckets, Epsilon: cfg.epsilon})
	if err != nil {
		return 0, 0, err
	}
	shadow, err := stream.NewWindow(cfg.n)
	if err != nil {
		return 0, 0, err
	}
	src, err := dataSource(cfg.data, cfg.seed)
	if err != nil {
		return 0, 0, err
	}
	gen, err := query.NewGenerator(cfg.kind, cfg.mode, cfg.n, cfg.queryLen, 0, cfg.seed+1)
	if err != nil {
		return 0, 0, err
	}
	push := func() {
		v := src.Next()
		tree.Update(v)
		h.Update(v)
		shadow.Push(v)
	}
	for i := 0; i < cfg.warm; i++ {
		push()
	}
	var swatAcc, histAcc metrics.Accumulator
	for qp := 0; qp < cfg.queryPoints; qp++ {
		for i := 0; i < cfg.queryEvery; i++ {
			push()
		}
		q := gen.NextLent()
		exact, err := query.Exact(shadow, q)
		if err != nil {
			return 0, 0, err
		}
		sv, err := query.Approx(tree, q)
		if err != nil {
			return 0, 0, err
		}
		hv, err := query.Approx(h, q)
		if err != nil {
			return 0, 0, err
		}
		swatAcc.Add(m.eval(sv, exact))
		histAcc.Add(m.eval(hv, exact))
	}
	return swatAcc.Mean(), histAcc.Mean(), nil
}

// fig5Scale returns the comparison sizing for a scale. The paper uses
// N=1024 with a query every arrival; the histogram rebuild cost makes
// that a minutes-long run, so Quick uses N=256 and fewer query points
// (the SWAT-vs-Histogram quality ratio is insensitive to this, see
// EXPERIMENTS.md). Following the paper's fairness rule, the bucket count
// equals the number of approximations SWAT keeps: B = 3·log2(N) − 2
// ("the number of approximations that SWAT keeps is 3 log N ...
// therefore we set the bucket size B = 30").
func fig5Scale(scale Scale) (n, buckets, warm, queryPoints, queryEvery int) {
	if scale == Paper {
		return 1024, 30, 1024, 600, 1
	}
	return 256, 22, 512, 250, 2
}

func fig5Fixed(scale Scale, id, data string, epsilon float64, m errMetric) (*Result, error) {
	n, buckets, warm, points, every := fig5Scale(scale)
	tab := &Table{
		Title: fmt.Sprintf("Average %s error, fixed query mode (%s data, N=%d, B=%d, eps=%g, %d query points)",
			m.name(), data, n, buckets, epsilon, points),
		Columns: []string{"query type", "SWAT", "Histogram", "SWAT gain"},
	}
	notes := []string{}
	for _, kind := range []query.Kind{query.Exponential, query.Linear} {
		// Fixed-mode queries match the paper's example scale: short
		// queries over the most recent values (the §2.1 examples have
		// length 4). Long linear queries are sum-cancelling for any
		// mean-preserving summary and wash out the comparison; see the
		// query-length sensitivity note in EXPERIMENTS.md.
		cfg := compareConfig{
			n: n, buckets: buckets, epsilon: epsilon, data: data,
			kind: kind, mode: query.Fixed, queryLen: 8,
			warm: warm, queryPoints: points, queryEvery: every, seed: 21,
		}
		sv, hv, err := runCompare(cfg, m)
		if err != nil {
			return nil, err
		}
		gain := 0.0
		if sv > 0 {
			gain = hv / sv
		}
		tab.AddRow(kind.String(), f(sv), f(hv), fmt.Sprintf("%.1fx", gain))
		if kind == query.Exponential {
			notes = append(notes, fmt.Sprintf("exponential-query gain %.1fx (paper: up to 50x on real data, 25x on synthetic)", gain))
		}
	}
	return &Result{
		ID:          id,
		Description: fmt.Sprintf("SWAT vs Histogram %s error, fixed query mode, %s data", m.name(), data),
		Tables:      []*Table{tab},
		Notes:       notes,
	}, nil
}

func fig5Random(scale Scale, id, data string, kind query.Kind) (*Result, error) {
	n, buckets, warm, points, every := fig5Scale(scale)
	// The paper's "random query mode" chooses "the sizes of the queries
	// and the specific data points of interest ... uniformly"; both
	// readings are reproduced: random positions (mode=random) and random
	// sizes anchored at the most recent value (mode=random-recent).
	var tables []*Table
	var lastGain float64
	for _, mode := range []query.Mode{query.Random, query.RandomRecent} {
		tab := &Table{
			Title: fmt.Sprintf("Average relative error, %s mode, %s queries (%s data, N=%d, B=%d)",
				mode, kind, data, n, buckets),
			Columns: []string{"epsilon", "SWAT", "Histogram"},
		}
		for _, eps := range []float64{0.1, 0.01, 0.001} {
			cfg := compareConfig{
				n: n, buckets: buckets, epsilon: eps, data: data,
				kind: kind, mode: mode, queryLen: n / 2,
				warm: warm, queryPoints: points, queryEvery: every, seed: 31,
			}
			sv, hv, err := runCompare(cfg, relMetric)
			if err != nil {
				return nil, err
			}
			tab.AddRow(fmt.Sprintf("%g", eps), f(sv), f(hv))
			if mode == query.RandomRecent && sv > 0 {
				lastGain = hv / sv
			}
		}
		tables = append(tables, tab)
	}
	expectation := "paper: SWAT slightly worse than Histogram for random linear queries"
	if kind == query.Exponential {
		expectation = "paper: SWAT outperforms Histogram for random exponential queries (ratio 0.026/0.0119 ≈ 2.2)"
	}
	return &Result{
		ID:          id,
		Description: fmt.Sprintf("SWAT vs Histogram, random query mode, %s queries, %s data", kind, data),
		Tables:      tables,
		Notes: []string{
			fmt.Sprintf("Histogram/SWAT error ratio at smallest eps (recent-anchored): %.2f", lastGain),
			expectation,
		},
	}, nil
}

func fig5f(scale Scale) (*Result, error) {
	n, buckets, warm, points, every := fig5Scale(scale)
	tab := &Table{
		Title:   fmt.Sprintf("Average relative error, recent-anchored random mode (synthetic data, N=%d, B=%d, eps=0.001)", n, buckets),
		Columns: []string{"query type", "SWAT", "Histogram"},
	}
	for _, kind := range []query.Kind{query.Exponential, query.Linear} {
		cfg := compareConfig{
			n: n, buckets: buckets, epsilon: 0.001, data: "synthetic",
			kind: kind, mode: query.RandomRecent, queryLen: n / 2,
			warm: warm, queryPoints: points, queryEvery: every, seed: 41,
		}
		sv, hv, err := runCompare(cfg, relMetric)
		if err != nil {
			return nil, err
		}
		tab.AddRow(kind.String(), f(sv), f(hv))
	}
	return &Result{
		ID:          "fig5f",
		Description: "SWAT vs Histogram, random query mode, synthetic data, eps=0.001",
		Tables:      []*Table{tab},
		Notes: []string{
			"paper: ~2x better for exponential queries, comparable (slightly worse) for linear",
		},
	}, nil
}

func fig6a(scale Scale) (*Result, error) {
	sizes := []int{100_000, 1_000_000, 10_000_000}
	if scale == Quick {
		sizes = []int{10_000, 100_000, 1_000_000}
	}
	const n = 1024
	tab := &Table{
		Title:   "Summary maintenance time over the whole dataset (N=1024, no queries)",
		Columns: []string{"dataset size", "SWAT", "SWAT node refreshes", "Histogram", "Histogram builds"},
		Timed:   []int{1, 3},
	}
	for _, size := range sizes {
		tree, err := core.New(core.Options{WindowSize: n})
		if err != nil {
			return nil, err
		}
		src := stream.Uniform(int64(size))
		swatDur := timeOp(func() {
			for i := 0; i < size; i++ {
				tree.Update(src.Next())
			}
		})

		h, err := histogram.New(histogram.Options{WindowSize: n, Buckets: 30, Epsilon: 0.1})
		if err != nil {
			return nil, err
		}
		src = stream.Uniform(int64(size))
		histDur := timeOp(func() {
			for i := 0; i < size; i++ {
				h.Update(src.Next())
			}
		})
		tab.AddRow(fmt.Sprintf("%d", size),
			swatDur.String(), fmt.Sprintf("%d", tree.NodeUpdates()),
			histDur.String(), fmt.Sprintf("%d", h.Builds()))
	}
	return &Result{
		ID:          "fig6a",
		Description: "maintenance time comparison (incremental summary upkeep, no queries)",
		Tables:      []*Table{tab},
		Notes: []string{
			"paper: \"the maintenance times of the techniques are very similar\" — both are O(1) per arrival",
			"work counts: SWAT refreshes about 2 nodes per arrival; the histogram only slides its window and never builds until queried",
		},
	}, nil
}

func fig6b(scale Scale) (*Result, error) {
	n := 1024
	queries := 100 // paper: "execute 100 uniformly generated exponential inner product queries"
	histQueries := 100
	if scale == Quick {
		queries = 100
		histQueries = 10 // each Histogram query rebuilds at ~0.3 s
	}
	tree, err := core.New(core.Options{WindowSize: n})
	if err != nil {
		return nil, err
	}
	h, err := histogram.New(histogram.Options{WindowSize: n, Buckets: 30, Epsilon: 0.1})
	if err != nil {
		return nil, err
	}
	src := stream.Uniform(5)
	for i := 0; i < 2*n; i++ {
		v := src.Next()
		tree.Update(v)
		h.Update(v)
	}
	timeQueries := func(e query.Evaluator, count int) (time.Duration, error) {
		g, err := query.NewGenerator(query.Exponential, query.Random, n, n, 0, 51)
		if err != nil {
			return 0, err
		}
		var qerr error
		avg := timeOp(func() {
			for i := 0; i < count; i++ {
				if _, err := query.Approx(e, g.NextLent()); err != nil {
					qerr = err
					return
				}
			}
		}) / time.Duration(count)
		if qerr != nil {
			return 0, qerr
		}
		return avg, nil
	}
	swatAvg, err := timeQueries(tree, queries)
	if err != nil {
		return nil, err
	}
	histAvg, err := timeQueries(h, histQueries)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:   fmt.Sprintf("Average query response time (N=%d, B=30, eps=0.1, exponential random queries)", n),
		Columns: []string{"technique", "avg response time", "queries timed", "node refreshes / builds"},
		Timed:   []int{1},
	}
	tab.AddRow("SWAT", swatAvg.String(), fmt.Sprintf("%d", queries),
		fmt.Sprintf("%d", tree.NodeUpdates()))
	tab.AddRow("Histogram", histAvg.String(), fmt.Sprintf("%d", histQueries),
		fmt.Sprintf("%d", h.Builds()))
	speedup := float64(histAvg) / float64(swatAvg)
	return &Result{
		ID:          "fig6b",
		Description: "average query response time comparison",
		Tables:      []*Table{tab},
		Notes: []string{
			"work counts: SWAT's node refreshes all happen during the 2N-value warm-up, none during queries; the histogram builds at the first query and answers the rest from its cached build",
		},
		TimedNotes: []string{
			fmt.Sprintf("SWAT speedup %.0fx (paper: 2.8e-3 s vs 25.4 s, about four orders of magnitude)", speedup),
		},
	}, nil
}
