//go:build linux

package main

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// bounds, per-layer metrics. BENCHMARK.json at the repository root
// states the same lists for the driver; bench_test.go holds the two
// equal.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(cfg runConfig, r *run) error
}

var workloads = []workloadDef{
	{"ingest-fleet", "write path: two cluster clients shard 256 streams over a 2-node swatd fleet, saturated (paced at 4 M values/s in the traced pass); tree update and wire framing share the cost, durable does nothing", runIngestFleet},
	{"query-node", "read path: frames of 64 inner-product queries against one swatd while a feeder writes 200 k values/s beside them; core answer/plan and wire query frames do the work", runQueryNode},
	{"gather-reshard", "PointAll, RollUp and Rebalance over 2048 warm streams on 3+1 nodes; per-stream round trips, summary decode, merge and install do the work, tree update almost none", runGatherReshard},
	{"durable-recover", "write-ahead-logged ObserveBatch in a child killed with SIGKILL, then recovery of what survived; durable does nearly all the work, wire and cluster none", runDurableRecover},
}

// Every workload reports every end-to-end metric; what the unit, the
// timed operation and the second operation are on each workload is
// tabled in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rate_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_unit", "ns", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p90_us", "us", "lower", 0.25},
	{"aux_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

var perLayer = []metricDef{
	{Name: "wavelet.averages_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "core.update_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "core.answer_batch_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "core.plan_eval_ns", Unit: "ns", Better: "lower"},
	{Name: "core.plan_recompile_ns", Unit: "ns", Better: "lower"},
	{Name: "core.bounded_point_ns", Unit: "ns", Better: "lower"},
	{Name: "core.summary_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.summary_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.summary_decode_allocs", Unit: "count", Better: "lower"},
	{Name: "core.summary_bytes", Unit: "count", Better: "lower"},
	{Name: "core.merge_ns", Unit: "ns", Better: "lower"},
	{Name: "core.merge_allocs", Unit: "count", Better: "lower"},
	{Name: "core.snapshot_marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "core.snapshot_unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "core.tree_heap_bytes", Unit: "count", Better: "lower"},
	{Name: "multi.observe_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "multi.self_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "multi.install_summary_ns", Unit: "ns", Better: "lower"},
	{Name: "multi.queryall_ns_per_stream", Unit: "ns", Better: "lower"},
	{Name: "durable.append_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "durable.self_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "durable.self_share", Unit: "%", Better: "lower"},
	{Name: "durable.wal_bytes_per_value", Unit: "count", Better: "lower"},
	{Name: "durable.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.checkpoints", Unit: "count", Better: "lower"},
	{Name: "durable.observe_p99_us", Unit: "us", Better: "lower"},
	{Name: "durable.recover_ms_per_stream", Unit: "ms", Better: "lower"},
	{Name: "durable.replayed_records", Unit: "count", Better: "lower"},
	{Name: "codec.frame_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.checksum_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "wire.feed_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "wire.self_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "wire.ping_rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.ingest_ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.ingest_ack_p90_us", Unit: "us", Better: "lower"},
	{Name: "wire.ingest_ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.query_batch_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.query_batch_us", Unit: "us", Better: "lower"},
	{Name: "wire.query_self_us", Unit: "us", Better: "lower"},
	{Name: "wire.stream_point_us", Unit: "us", Better: "lower"},
	{Name: "wire.fetch_summary_us", Unit: "us", Better: "lower"},
	{Name: "wire.mig_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "wire.enqueued_values", Unit: "count", Better: "higher"},
	{Name: "wire.shed_values", Unit: "count", Better: "lower"},
	{Name: "wire.ingest_errors", Unit: "count", Better: "lower"},
	{Name: "wire.queue_len_max", Unit: "count", Better: "lower"},
	{Name: "wire.epoch_refusals", Unit: "count", Better: "lower"},
	{Name: "wire.pool_dials", Unit: "count", Better: "lower"},
	{Name: "wire.pool_retries", Unit: "count", Better: "lower"},
	{Name: "wire.pool_discards", Unit: "count", Better: "lower"},
	{Name: "cluster.observe_ns_per_value.n1", Unit: "ns", Better: "lower"},
	{Name: "cluster.observe_ns_per_value.n2", Unit: "ns", Better: "lower"},
	{Name: "cluster.self_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.max_share", Unit: "%", Better: "lower"},
	{Name: "cluster.pointall_us_per_stream", Unit: "us", Better: "lower"},
	{Name: "cluster.rollup_us_per_stream", Unit: "us", Better: "lower"},
	{Name: "cluster.rollup_decode_share", Unit: "%", Better: "lower"},
	{Name: "cluster.first_pointall_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.first_rollup_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.moved_streams", Unit: "count", Better: "lower"},
	{Name: "cluster.moved_bytes", Unit: "count", Better: "lower"},
	{Name: "cluster.chunks", Unit: "count", Better: "lower"},
	{Name: "cluster.unfenced", Unit: "count", Better: "lower"},
	{Name: "swatd.start_ms", Unit: "ms", Better: "lower"},
	{Name: "swatd.cpu_s", Unit: "s", Better: "lower"},
	{Name: "swatd.rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "gen.cpu_s", Unit: "s", Better: "lower"},
	{Name: "gen.lateness_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.values_generated", Unit: "count", Better: "higher"},
	{Name: "ladder.self_sum_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "trace_overhead_share", Unit: "%", Better: "lower"},
	{Name: "failed_ops_share", Unit: "%", Better: "lower"},
	{Name: "answer_mismatches", Unit: "count", Better: "lower"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// run accumulates one invocation's outcome. Counters are atomic: the
// generator goroutines of a workload share it.
type run struct {
	attempted  atomic.Int64
	failed     atomic.Int64
	mismatches atomic.Int64

	mu      sync.Mutex
	metrics map[string]float64
	timings map[string]timing
	notes   []string
}

func newRun() *run {
	return &run{metrics: make(map[string]float64), timings: make(map[string]timing)}
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

func (r *run) get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// timed records how a latency was sampled next to the metric it feeds.
func (r *run) timed(name string, s *samples) timing {
	t := s.timing()
	r.mu.Lock()
	r.timings[name] = t
	r.mu.Unlock()
	return t
}

// mismatch counts one wrong answer and keeps the first few for the
// report.
func (r *run) mismatch(format string, args ...any) {
	r.mismatches.Add(1)
	r.mu.Lock()
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *run) correct() bool { return r.mismatches.Load() == 0 && r.failed.Load() == 0 }

// emitted picks the metrics a pass reports, in the order defined, and
// fails on one the workload forgot.
func (r *run) emitted(defs []metricDef) (map[string]map[string]any, error) {
	out := make(map[string]map[string]any, len(defs))
	var missing []string
	for _, d := range defs {
		r.mu.Lock()
		v, ok := r.metrics[d.Name]
		r.mu.Unlock()
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("bench: metrics not measured: %v", missing)
	}
	return out, nil
}
