//go:build linux

package main

// Noise mode (-repeat K): K untraced invocations of each workload on
// seeds seed, seed+1, ... and, per (metric, workload), the median, the
// quartiles, their distance as a share of the median — the spread the
// driver holds against the metric's bound — and the worst single
// deviation. The bounds in metrics.go and BENCHMARK.json were derived
// from this table.

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles matches Python's statistics.quantiles(values, n=4): the
// exclusive method, the one the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func noiseMode(base runConfig, names []string, repeat int) int {
	values := make(map[string]map[string][]float64) // workload → metric → one value per invocation
	code := 0
	for i := 0; i < repeat; i++ {
		for _, name := range names {
			cfg := base
			cfg.workload, cfg.seed = name, base.seed+int64(i)
			res, err := runPass(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for metric, m := range res.Metrics {
				values[name][metric] = append(values[name][metric], m["value"].(float64))
			}
		}
	}
	fmt.Printf("\n# spread over %d invocations (seeds %d..%d)\n", repeat, base.seed, base.seed+int64(repeat)-1)
	fmt.Printf("%-16s %-18s %14s %14s %14s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "worst", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			vs := values[name][d.Name]
			q1, q2, q3 := quartiles(vs)
			worst := 0.0
			for _, v := range vs {
				worst = math.Max(worst, math.Abs(v-q2)/q2)
			}
			flag := ""
			if spread := (q3 - q1) / q2; d.Name != "setup_s" && spread > d.Bound/3 {
				flag = " <- above a third of the bound"
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %14.4f %8.4f %8.4f %6.2f%s\n",
				name, d.Name, q2, q1, q3, (q3-q1)/q2, worst, d.Bound, flag)
		}
	}
	return code
}
