# Build/verify entry points. `make verify` is the tier-1 gate: it must
# pass before any change lands.

GO ?= go

.PHONY: build test test-short vet lint race race-merge race-cluster race-migrate verify cover bench bench-hotpath bench-query bench-wire bench-merge bench-cluster bench-cluster-smoke bench-smoke fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Static-analysis gate (see DESIGN.md §2.9, §2.14): the swatlint suite
# (seededrand, noalloc, lockcheck, detmap, goroexit, deadline,
# sentinelcheck, lockflow), gofmt cleanliness, and module tidiness.
# staticcheck and govulncheck run when installed — CI pins and installs
# them; offline dev boxes skip with a notice.
lint:
	$(GO) run ./cmd/swatlint ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) mod tidy -diff
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed, skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed, skipping (CI runs it)"; fi

# -short trims the long experiment sweeps; the race detector still
# covers every package's concurrency paths.
race:
	$(GO) test -race -short ./...

# The merge algebra property suite (commutativity, associativity,
# identity, geometry reconciliation) under the race detector — it
# drives Tree.Merge/MergeSummary/Export through the tree's locking, so
# racing it pins the merge path's lock discipline explicitly.
race-merge:
	$(GO) test -race -count=1 -run 'TestMerge|TestSummary' ./internal/core ./internal/multi

# The socket-level scatter-gather e2e suite under the race detector at
# full depth (no -short, no cached results): real TCP listeners,
# consistent-hash sharding, and the pool's pipelined gathers exercise
# the wire/cluster locking that the deadline and lockflow analyzers
# check statically; cmd/swatd adds the SIGTERM-and-restart test of a
# durable swatd process.
race-cluster:
	$(GO) test -race -count=1 ./internal/wire ./internal/cluster ./cmd/swatd

# The live-resharding proofs under the race detector: the netsim
# migration scenarios (scripted source crashes, transfers cut at
# arbitrary offsets, partitions mid-cutover) plus the socket-level
# Rebalance and chunked-transfer suites. Every run asserts honest
# bounds at every step, gap-free monotone transfer ledgers, and
# byte-identical post-migration state against a golden run.
race-migrate:
	$(GO) test -race -count=1 -run 'TestMigrate' ./internal/netsim/scenario
	$(GO) test -race -count=1 -run 'TestRebalance|TestMig|TestEpoch' ./internal/cluster ./internal/wire
	$(GO) test -race -count=1 -run 'TestTransfer|TestResetToSummary' ./internal/core

verify: build vet lint test race race-merge race-cluster race-migrate bench-smoke bench-cluster-smoke fuzz-smoke

# Short coverage-guided fuzzing on every fuzz target (frame decoding,
# server dispatch, batched-update equivalence, snapshot decoding, WAL
# recovery). FUZZTIME bounds each target; 30s keeps verify usable while
# still growing the corpus past the seeds. Targets run one at a time —
# `go test -fuzz` accepts only a single matching target per package.
FUZZTIME ?= 30s

fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzServerDispatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeBinaryFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeMigFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzUpdateBatchEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzUnmarshalBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzMergeEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzAccumulateEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable -run '^$$' -fuzz '^FuzzRecoverSegment$$' -fuzztime $(FUZZTIME)

# Per-package coverage (printed per package by go test) plus an
# aggregate profile; inspect with `go tool cover -html=cover.out`.
cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Hot-path micro-benchmarks only; writes BENCH_hotpath.{txt,json}.
bench-hotpath:
	scripts/bench.sh 6 hotpath

# Serve-side benchmarks (compiled plans, concurrent AnswerBatch,
# histogram cache); writes BENCH_query.{txt,json}.
bench-query:
	scripts/bench.sh 6 query

# Wire-protocol benchmarks over loopback TCP (binary ingest, acknowledged
# ingest and batched queries); writes BENCH_wire.{txt,json}.
bench-wire:
	scripts/bench.sh 6 wire

# Summary merge and canonical-encoding benchmarks (the distributed
# roll-up path); writes BENCH_merge.{txt,json}.
bench-merge:
	scripts/bench.sh 6 merge

# Multi-process cluster benchmark: 1/2/4 swatd nodes behind
# cluster.Client sharding, with scatter-gather latency; writes
# BENCH_cluster.{txt,json}. The smoke variant boots one node and drives
# it for a second — a tripwire for the swatd/swatload/cluster stack,
# part of `verify`.
bench-cluster:
	scripts/bench_cluster.sh 5s

bench-cluster-smoke:
	scripts/bench_cluster.sh smoke

# Run every benchmark exactly once — a compile-and-run tripwire, not a
# measurement. Part of `verify` so a benchmark that stops building or
# starts failing is caught by the tier-1 gate.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem .
