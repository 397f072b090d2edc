#!/usr/bin/env bash
# Benchmark cluster ingest and scatter-gather at 1/2/4 simulated nodes.
#
#   scripts/bench_cluster.sh [duration]   full run; writes BENCH_cluster.{txt,json}
#   scripts/bench_cluster.sh smoke        1-node tripwire, ~2s, no artifacts
#
# Each fleet is n `swatd` processes on loopback plus one
# `swatload -cluster` driver. All processes time-share the same host
# ("simulated nodes"), so the *wall-clock* rate cannot exceed one
# machine's throughput no matter the fleet size. Aggregate fleet
# capacity is therefore computed by time division, the standard
# single-host method: a sharded fleet saturates when its busiest node
# saturates, so
#
#   capacity(n) = R1 / max_share(n)
#
# where R1 is the measured single-node saturation rate and max_share is
# the largest fraction of the sharded load any node received (measured
# from each node's own ingest accounting, not assumed from the ring).
# Perfect balance gives capacity(n) = n × R1; ring skew shows up
# directly as lost capacity. Scatter-gather latency (PointAll, RollUp)
# is measured live per fleet.
set -euo pipefail

cd "$(dirname "$0")/.."

DURATION="${1:-5s}"
SMOKE=0
if [ "$DURATION" = "smoke" ]; then
    SMOKE=1
    DURATION=1s
fi

CONNS=4
STREAMS=64   # per worker: 256 named streams total, enough to wash out
             # per-key sampling noise in the load split
BATCH=256
WINDOW=1024
VNODES=512   # tighter arc-length spread than the library default
BASE_PORT=7481

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/swatd" ./cmd/swatd
go build -o "$WORK/swatload" ./cmd/swatload

# start_fleet <n>: launches n nodes, waits for each port.
start_fleet() {
    local n="$1" port
    PIDS=()
    for i in $(seq 0 $((n - 1))); do
        port=$((BASE_PORT + i))
        "$WORK/swatd" -addr "127.0.0.1:$port" -window "$WINDOW" \
            >"$WORK/swatd-$n-$i.log" 2>&1 &
        PIDS+=($!)
    done
    for i in $(seq 0 $((n - 1))); do
        port=$((BASE_PORT + i))
        for _ in $(seq 1 50); do
            if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
                exec 3>&- 3<&-
                continue 2
            fi
            sleep 0.1
        done
        echo "bench_cluster: node on port $port never came up" >&2
        exit 1
    done
}

stop_fleet() {
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    PIDS=()
}

# run_fleet <n>: drives the fleet, leaving swatload's JSON in $WORK.
run_fleet() {
    local n="$1" addrs="127.0.0.1:$BASE_PORT"
    for i in $(seq 1 $((n - 1))); do
        addrs="$addrs,127.0.0.1:$((BASE_PORT + i))"
    done
    start_fleet "$n"
    "$WORK/swatload" -cluster "$addrs" -conns "$CONNS" -streams "$STREAMS" \
        -batch "$BATCH" -duration "$DURATION" -window "$WINDOW" \
        -vnodes "$VNODES" -json >"$WORK/fleet-$n.json"
    stop_fleet
}

# jget <file> <key>: first numeric value of a top-level JSON key (our
# own indented MarshalIndent output, one key per line).
jget() {
    awk -v k="\"$2\":" '$1 == k { gsub(/,/, "", $2); print $2; exit }' "$1"
}

# max_share <file>: the largest per-node load share.
max_share() {
    awk -v k='"share":' '$1 == k { gsub(/,/, "", $2); if ($2 > m) m = $2 } END { print m }' "$1"
}

if [ "$SMOKE" = 1 ]; then
    run_fleet 1
    rate="$(jget "$WORK/fleet-1.json" values_per_sec)"
    echo "bench_cluster smoke: 1 node, $rate values/s"
    exit 0
fi

for n in 1 2 4; do
    echo "bench_cluster: fleet of $n, $DURATION ..."
    run_fleet "$n"
done

R1="$(jget "$WORK/fleet-1.json" values_per_sec)"

{
    echo "["
    first=1
    for n in 1 2 4; do
        f="$WORK/fleet-$n.json"
        share="$(max_share "$f")"
        [ "$first" = 1 ] || echo ","
        first=0
        awk -v n="$n" -v r1="$R1" -v share="$share" \
            -v rate="$(jget "$f" values_per_sec)" \
            -v pa="$(jget "$f" pointall_ms)" -v ru="$(jget "$f" rollup_ms)" \
            'BEGIN {
                cap = r1 / share
                printf "  {\"nodes\": %d, \"measured_values_per_sec\": %.0f, \"max_share\": %.4f,\n", n, rate, share
                printf "   \"aggregate_capacity_values_per_sec\": %.0f, \"speedup_vs_one\": %.2f,\n", cap, cap / r1
                printf "   \"pointall_ms\": %.2f, \"rollup_ms\": %.2f}", pa, ru
            }'
    done
    echo ""
    echo "]"
} >BENCH_cluster.json.tmp
mv BENCH_cluster.json.tmp BENCH_cluster.json

{
    echo "bench_cluster: $DURATION per fleet, $CONNS workers x $STREAMS streams, batch $BATCH, vnodes $VNODES"
    echo
    echo "Aggregate capacity is computed by time division (all nodes share"
    echo "one host): capacity(n) = R1 / max_share(n), with R1 the measured"
    echo "single-node saturation rate and max_share the busiest node's"
    echo "measured fraction of the sharded load. See scripts/bench_cluster.sh."
    echo
    printf "%-6s %-18s %-10s %-22s %-9s %-12s %-10s\n" \
        nodes "measured values/s" max-share "aggregate capacity/s" speedup "PointAll ms" "RollUp ms"
    for n in 1 2 4; do
        f="$WORK/fleet-$n.json"
        share="$(max_share "$f")"
        awk -v n="$n" -v r1="$R1" -v share="$share" \
            -v rate="$(jget "$f" values_per_sec)" \
            -v pa="$(jget "$f" pointall_ms)" -v ru="$(jget "$f" rollup_ms)" \
            'BEGIN {
                printf "%-6d %-18.0f %-10.4f %-22.0f %-9.2f %-12.2f %-10.2f\n",
                    n, rate, share, r1 / share, 1 / share, pa, ru
            }'
    done
} >BENCH_cluster.txt.tmp
mv BENCH_cluster.txt.tmp BENCH_cluster.txt

cat BENCH_cluster.txt
echo "wrote BENCH_cluster.txt and BENCH_cluster.json"

# The acceptance bar: a 4-node fleet must offer at least 3x one node.
awk -v share="$(max_share "$WORK/fleet-4.json")" 'BEGIN {
    if (1 / share < 3) {
        printf "bench_cluster: 4-node speedup %.2f is under 3x — ring balance regressed\n", 1 / share
        exit 1
    }
}'
