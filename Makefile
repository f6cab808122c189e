# Convenience targets; everything is plain `go` underneath.
# `make help` lists every target with its one-line description.

GO ?= go

.PHONY: all build vet lint stitchvet lint-audit lint-fixtures test test-short race race-fast serve bench bench-json bench-smoke tables figures coverage fuzz fuzz-eco soak fracture-golden eco-golden repin loc clean help

all: build vet test ## build + vet + full tests

build: ## compile every package and command
	$(GO) build ./...

vet: ## go vet over the whole repo
	$(GO) vet ./...

# Static-analysis gate. stitchvet is the repo's own go/analysis-style
# linter (cmd/stitchvet, see docs/LINTING.md): the syntactic floateq and
# two flow-sensitive analyzers built on the CFG + dataflow engine
# (nondeterm, hotalloc). It exits nonzero on any unsuppressed
# diagnostic. staticcheck runs too when installed (CI installs a pinned
# version; the offline dev container may not have it).
lint: vet stitchvet ## vet + stitchvet + staticcheck (if installed)
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipped (CI runs it pinned)"; \
	fi

stitchvet: ## build and run the repo's invariant linter
	$(GO) build -o bin/stitchvet ./cmd/stitchvet
	./bin/stitchvet ./...

lint-audit: ## check every //lint:ignore directive for name, reason, and staleness
	$(GO) build -o bin/stitchvet ./cmd/stitchvet
	./bin/stitchvet -audit

# The analyzers' own regression suite: fixture expectations for all three
# analyzers, the historical-catch test (every real bug stitchvet caught,
# re-created and run through the driver), the CFG builder's structural
# tests, the dataflow lattice and summary tests, the loader and fixture
# harness tests, and the driver's suppression/JSON/audit semantics.
lint-fixtures: ## test the analyzers themselves (fixtures, CFG, dataflow)
	$(GO) test ./internal/analysis/...

test: ## full test suite
	$(GO) test ./...

test-short: ## short-mode tests
	$(GO) test -short ./...

# Full race-detector run. race-fast runs short mode under -race for every
# internal package that starts goroutines: server (job store, pool,
# cache), core (the layer and track panels, solved in parallel) and
# experiments (the per-circuit fan-out). global starts none, and neither
# do its tests.
race: ## full test suite under the race detector
	$(GO) test -race ./...

race-fast: ## race detector on the packages that start goroutines
	$(GO) test -race -short ./internal/server/ ./internal/core/ ./internal/experiments/

serve: ## run the routing job server
	$(GO) run ./cmd/meblserved

bench: ## run all benchmarks
	$(GO) test -bench=. -benchmem ./...

# Regenerate the checked-in pipeline benchmark report: one record per
# circuit with every stage's best-of-BENCH_RUNS time (routing stages,
# fracturing, stencil, ECO cold/replay/patch), gated on reproducible
# routes, shot and plan hashes and on replay == cold (docs/PERFORMANCE.md).
BENCH_RUNS ?= 7
bench-json: ## regenerate BENCH_pipeline.json (every stage, see docs/PERFORMANCE.md)
	$(GO) run ./cmd/benchjson -runs $(BENCH_RUNS) -out BENCH_pipeline.json

# One-iteration benchmark smoke: proves the detail-stage benchmark (and
# its pinned routes-hash assertion), the global maze pass, the full-chip
# DRC pass, the write-prep stages (with their pinned shot and plan
# hashes) and an S13207 ECO patch (with its determinism and report
# checks) still run, the last four with their allocation counts; takes
# seconds.
bench-smoke: ## run BenchmarkDetail, BenchmarkGlobalMaze, BenchmarkCheck, BenchmarkWritePrep and BenchmarkPatch once
	$(GO) test -run '^$$' -bench BenchmarkDetail -benchtime 1x ./internal/detail/
	$(GO) test -run '^$$' -bench BenchmarkGlobalMaze -benchtime 1x -benchmem ./internal/global/
	$(GO) test -run '^$$' -bench BenchmarkCheck -benchtime 1x -benchmem ./internal/drc/
	$(GO) test -run '^$$' -bench BenchmarkWritePrep -benchtime 1x -benchmem ./internal/harness/
	$(GO) test -run '^$$' -bench BenchmarkPatch -benchtime 1x -benchmem ./internal/eco/

# Regenerate the paper's tables on the fast subset (use CIRCUITS=all for
# the full 14-circuit suite; that takes ~15 minutes).
CIRCUITS ?= small
tables: ## regenerate the paper's tables (CIRCUITS=all for the full suite)
	$(GO) run ./cmd/tablegen -circuits $(CIRCUITS)

figures: ## regenerate the paper's figures
	$(GO) run ./cmd/layoutviz -circuit S38417 -out fig15.svg
	$(GO) run ./cmd/layoutviz -fig16 -circuit S9234 -out fig16
	$(GO) run ./examples/rasterdefect

# Coverage gate: total short-mode statement coverage of internal/... must
# stay at or above COVER_FLOOR (recorded at 87.4% when the gate landed).
COVER_FLOOR ?= 86.0
coverage: ## short-mode coverage with the COVER_FLOOR gate
	$(GO) test -short -coverprofile=cover.out ./internal/...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	ok=$$(awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN {print (t+0 >= f+0) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "coverage gate FAILED: $$total% < floor $(COVER_FLOOR)%"; exit 1; \
	else \
		echo "coverage gate ok: $$total% >= floor $(COVER_FLOOR)%"; \
	fi

# Short fuzz session over the routing pipeline; CI-sized by default.
FUZZTIME ?= 30s
fuzz: ## short fuzz session over the routing pipeline
	$(GO) test -fuzz=FuzzRoute -fuzztime=$(FUZZTIME) -run '^$$' ./internal/harness/

# Fuzz the ECO edit-script surface: arbitrary scripts against a fixed
# committed circuit, asserting replay==cold byte equality, patch
# determinism, and the DRC battery (docs/ECO.md). Minimizing each new
# interesting script may take the default 60 s and holds a worker, so
# a short session would stall with both workers minimizing; 1 s bounds
# it. A failing script is still reported and fails the target.
fuzz-eco: ## short fuzz session over ECO edit scripts
	$(GO) test -fuzz=FuzzECO -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/harness/

# Write-prep regression gate: shot-count goldens plus the raster
# differential (fractured shots must rasterize identically to the
# unfractured geometry). make repin refreshes the golden file.
fracture-golden: ## run the write-prep golden + raster differential gate
	$(GO) test ./internal/harness/ -run 'TestFracture(Golden|RasterDifferential)'

# Incremental-rerouting regression gate: exact cold/replay/patch hashes
# and reuse counters on the golden benchmarks, plus the replay==cold
# equivalence invariant (docs/ECO.md). make repin refreshes the snapshot.
eco-golden: ## run the ECO golden gate
	$(GO) test ./internal/harness/ -run TestECOGolden

# Rewrite every pin a test holds, in one go: the harness goldens
# (routing quality, ECO, write-prep) and the detail package's recording
# and global trace hashes (BenchmarkDetail reads the S9234 golden). Each
# -update path prints every field that changed, "file entry: key
# before → after", ready for a change log. The tests run in local
# directory mode (go -C, no package argument), so that output streams
# and nothing is cached. The checks themselves still compare exactly;
# on an unchanged tree this leaves no diff (docs/TESTING.md).
repin: ## rewrite every test-held pin and print each field that changed
	$(GO) -C internal/harness test -run '^Test(GoldenBenchmarks|ECOGolden|FractureGolden)$$' -update
	$(GO) -C internal/detail test -run '^Test(RecordingHash|GlobalTraceHash)$$' -update

# Size of the program: non-test Go lines outside benchmark/ and any
# testdata/, per package directory and in total (blank and comment
# lines count). Changes that simplify report the total before and after.
loc: ## count non-test Go lines per package and in total
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Multi-seed end-to-end correctness soak (full invariant battery over the
# harness parameter grid).
SOAK_SEEDS ?= 25
soak: ## multi-seed end-to-end correctness soak
	$(GO) run ./cmd/routecheck -seeds $(SOAK_SEEDS)

clean: ## remove generated figures, coverage, and lint binaries
	rm -f fig15.svg fig16a.svg fig16b.svg cover.out
	rm -rf bin

help: ## list targets with their descriptions
	@awk -F':.*## ' '/^[a-zA-Z_-]+:.*## / {printf "  %-12s %s\n", $$1, $$2}' $(MAKEFILE_LIST)
