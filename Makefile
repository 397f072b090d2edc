# Build/verify entry points. `make verify` is the tier-1 gate: it must
# pass before any change lands.

GO ?= go

.PHONY: build test test-short vet lint race verify cover bench bench-smoke fuzz-smoke

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

# One race-detector pass over every package. The socket-level suites
# (real TCP listeners, consistent-hash sharding, pipelined gathers,
# Rebalance and chunked transfers) run at full depth; every other
# package runs -short, which trims only the long experiment sweeps.
# The pass covers the merge algebra property suite, the live-resharding
# proofs (socket-level Rebalance with cut transfers and fences, summary
# transfers) and cmd/swatd's SIGTERM-and-restart test of a durable
# swatd process. -count=1: no cached results.
RACE_FULL = ./internal/wire ./internal/cluster

race:
	$(GO) test -race -count=1 $(RACE_FULL)
	$(GO) test -race -count=1 -short $$($(GO) list ./... | grep -v -x -e '.*/internal/wire' -e '.*/internal/cluster')

verify: build vet lint test race bench-smoke fuzz-smoke

# Short coverage-guided fuzzing on every fuzz target (frame decoding,
# server dispatch, batched-update equivalence, snapshot decoding, merge
# and accumulate equivalence, query routing against its reference,
# handoff bundle decoding, summary decoding against its reference,
# in-place summary installs against fresh trees, WAL recovery).
# FUZZTIME bounds each target; 30s keeps verify usable while still
# growing the corpus past the seeds. Targets run one at a time —
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
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzQueryRoutingEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeBundle$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeSummaryEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzResetInPlaceEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable -run '^$$' -fuzz '^FuzzRecoverSegment$$' -fuzztime $(FUZZTIME)

# Per-package coverage (printed per package by go test) plus an
# aggregate profile; inspect with `go tool cover -html=cover.out`.
cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# The repository benchmark (BENCHMARK.json): all four workloads, end to
# end and through the per-layer ladder. See bench/README.md.
bench:
	bash bench/run.sh

# Run every benchmark exactly once — a compile-and-run tripwire, not a
# measurement. Part of `verify` so a benchmark that stops building or
# starts failing is caught by the tier-1 gate.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem .
