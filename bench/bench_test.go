//go:build linux

package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when the
// durable workload re-executes itself as the writer child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role" {
		main()
		return
	}
	os.Exit(m.Run())
}

// shortSize keeps every workload's shape with in-process nodes and a
// fraction of the streams.
var shortSize = sizes{
	ingestStreams:  16,
	gatherStreams:  96,
	reshardCycles:  1,
	durableStreams: 8,
	durableCycles:  2,
	setups:         2,
}

func shortConfig(t *testing.T, workload string) runConfig {
	dir := t.TempDir()
	return runConfig{workload: workload, seed: 3, seconds: 0.4, workDir: dir, outDir: dir, size: shortSize}
}

// Each workload at short size passes all its correctness checks and
// reports every end-to-end metric as a positive number.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runPass(shortConfig(t, w.Name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for _, d := range endToEnd {
				if d.Name == "peak_rss_mb" && w.Name != "durable-recover" {
					continue // in-process nodes have no resident set of their own
				}
				v := res.Metrics[d.Name]["value"].(float64)
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
		})
	}
}

// The traced pass reports every per-layer metric, and a falsified
// answer — the checker is itself checked — raises answer_mismatches on
// every workload.
func TestTracedPassCountsCorruptAnswer(t *testing.T) {
	moved := map[string][]string{
		"ingest-fleet":    {"core.update_ns_per_value", "multi.observe_ns_per_value", "wire.feed_ns_per_value", "cluster.observe_ns_per_value.n1", "cluster.max_share"},
		"query-node":      {"core.answer_batch_ns_per_query", "wire.query_batch_us"},
		"gather-reshard":  {"core.summary_decode_ns", "core.merge_ns", "wire.mig_roundtrip_us", "cluster.moved_streams", "cluster.first_pointall_ms"},
		"durable-recover": {"durable.append_ns_per_value", "durable.recover_ms_per_stream", "durable.self_share"},
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := shortConfig(t, w.Name)
			cfg.trace, cfg.corrupt = true, true
			res, err := runPass(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Metrics["answer_mismatches"]["value"].(float64) < 1 {
				t.Fatalf("a corrupted answer went unnoticed: %+v", res.Notes)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d per-layer metrics emitted, %d defined", len(res.Metrics), len(perLayer))
			}
			for _, name := range moved[w.Name] {
				if v := res.Metrics[name]["value"].(float64); !(v > 0) {
					t.Errorf("%s = %v on the workload that exercises it", name, v)
				}
			}
			if _, err := os.Stat(cfg.tracePath()); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

// A node that sheds must show up as failed operations and as a count
// mismatch.
func TestShedBatchIsCounted(t *testing.T) {
	nodes, err := startFleet(fleetSpec{nodes: 1, geo: fleetGeometry, streams: true, shed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stopFleet(nodes)
	client, err := newClusterClient(fleetGeometry, addrs(nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	pool := newValuePool(1, 2, 64)
	g := &ingestGen{client: client, pool: pool, names: poolNames(pool), sent: make([]int, pool.streams)}
	r := newRun()
	for i := 0; i < 200; i++ {
		if err := g.round(r, 0, len(g.names)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.sync(r); err != nil {
		t.Fatal(err)
	}
	env := &ingestEnv{nodes: nodes}
	if _, err := env.checkCounters(r, g.values()); err != nil {
		t.Fatal(err)
	}
	if r.failed.Load() == 0 || r.mismatches.Load() == 0 || r.correct() {
		t.Fatalf("12800 batches through a one-slot shedding queue: failed=%d mismatches=%d", r.failed.Load(), r.mismatches.Load())
	}
}

// BENCHMARK.json and the tables in metrics.go say the same thing, and
// both stay inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name)
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q in metrics.go", i, spec.Workloads[i], w.Name)
		}
	}
	sameDefs := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in metrics.go", len(got), kind, len(want))
		}
		for i, d := range want {
			check(d.Name)
			if got[i] != d || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in metrics.go", kind, i, got[i], d)
			}
		}
	}
	sameDefs("end-to-end", spec.EndToEnd, endToEnd)
	sameDefs("per-layer", spec.PerLayer, perLayer)
	setup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// The spread the noise mode prints must be the driver's: Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 2, 8, 3, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
}
