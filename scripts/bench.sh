#!/usr/bin/env bash
# Run the micro-benchmarks with allocation reporting and emit
# machine-readable snapshots next to the repo root.
#
#   scripts/bench.sh [count] [stage]
#
# count defaults to 6 runs per benchmark (pass 1 for a quick smoke run).
# stage selects which suites run: "hotpath", "query", "wire", "merge",
# or "all" (default).
#
# Each stage writes two artifacts:
#   BENCH_<stage>.txt   raw `go test -bench` output — benchstat input;
#                       compare checkouts with
#                         benchstat old/BENCH_query.txt BENCH_query.txt
#   BENCH_<stage>.json  one object per benchmark run with ns/op, B/op,
#                       allocs/op, plus any reported throughput/latency
#                       metrics (msgs/s, values/s, p99-us), for
#                       scripted diffing.
set -euo pipefail

cd "$(dirname "$0")/.."

COUNT="${1:-6}"
STAGE="${2:-all}"

HOTPATH_BENCHES='BenchmarkTreeUpdate$|BenchmarkTreeUpdateBatch|BenchmarkTreePointQuery|BenchmarkTreeInnerProduct|BenchmarkMonitorIngest'
QUERY_BENCHES='BenchmarkQueryAdhoc|BenchmarkQueryPlan|BenchmarkAnswerBatch|BenchmarkHistogramQuery|BenchmarkMonitorQueryAll'
WIRE_BENCHES='BenchmarkWireV2Ingest16|BenchmarkWireV2Ingest256|BenchmarkWireV2IngestLatency|BenchmarkWireV2QueryBatch'
MERGE_BENCHES='BenchmarkTreeMerge|BenchmarkSummaryEncode|BenchmarkSummaryDecode'

# run_stage <name> <bench regexp>: runs the suite, tees raw benchstat-
# compatible text to BENCH_<name>.txt and digests it into BENCH_<name>.json.
# Capture goes to temporaries first so a failed run leaves any previous
# snapshot untouched.
run_stage() {
    local name="$1" benches="$2"
    local raw="BENCH_${name}.txt" out="BENCH_${name}.json"

    go test -run '^$' -bench "$benches" -benchmem -count="$COUNT" . | tee "$raw.tmp"
    mv "$raw.tmp" "$raw"

    awk '
    BEGIN { print "[" }
    /^Benchmark/ {
        ns = ""; bytes = ""; allocs = ""; msgs = ""; values = ""; p99 = ""
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "ns/op") ns = $i
            if ($(i+1) == "B/op") bytes = $i
            if ($(i+1) == "allocs/op") allocs = $i
            if ($(i+1) == "msgs/s") msgs = $i
            if ($(i+1) == "values/s") values = $i
            if ($(i+1) == "p99-us") p99 = $i
        }
        if (ns == "") next
        if (n++) printf ",\n"
        printf "  {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", $1, $2, ns
        if (bytes != "") printf ", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bytes, allocs
        if (msgs != "") printf ", \"msgs_per_sec\": %s", msgs
        if (values != "") printf ", \"values_per_sec\": %s", values
        if (p99 != "") printf ", \"p99_us\": %s", p99
        printf "}"
    }
    END { print "\n]" }
    ' "$raw" > "$out.tmp"
    mv "$out.tmp" "$out"

    echo "wrote $raw and $out"
}

case "$STAGE" in
hotpath) run_stage hotpath "$HOTPATH_BENCHES" ;;
query) run_stage query "$QUERY_BENCHES" ;;
wire) run_stage wire "$WIRE_BENCHES" ;;
merge) run_stage merge "$MERGE_BENCHES" ;;
all)
    run_stage hotpath "$HOTPATH_BENCHES"
    run_stage query "$QUERY_BENCHES"
    run_stage wire "$WIRE_BENCHES"
    run_stage merge "$MERGE_BENCHES"
    ;;
*)
    echo "unknown stage: $STAGE (want hotpath, query, wire, merge, or all)" >&2
    exit 2
    ;;
esac
