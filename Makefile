# Tier-1 verification gate and developer targets.
GO ?= go
BENCH_DATE := $(shell date +%Y%m%d)

.PHONY: build test check race-core race-serve vet-obs fuzz-smoke loadtest-smoke yieldstream-smoke bench bench-compare bench-prune catalog

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the tier-1 gate: static analysis plus the full test suite under
# the race detector. ./... covers the golden-regression tests (root package
# and cmd/sramopt) and the serving layer's coalescing/drain tests, so check
# is also the service e2e gate. The core search engine and the server are
# explicitly concurrent — run this before every commit touching either. The
# branch-and-bound parity gates run first and verbosely, so a pruning
# correctness break is named in the output, not buried in ./...
# perfbench/ is its own module, so ./... never compiles it; vetting it here
# makes a change to an internal API it uses fail the gate, not the benchmark.
check: vet-obs
	$(GO) vet ./...
	GOWORK=off $(GO) -C perfbench vet .
	$(GO) test -race -run 'TestBranchAndBound' -v ./internal/core/
	$(GO) test -race ./...
	$(MAKE) loadtest-smoke
	$(MAKE) yieldstream-smoke

# race-core is the fast inner loop: only the search-engine package under the
# race detector.
race-core:
	$(GO) test -race ./internal/core/...

# race-serve gates the HTTP serving layer on its own: the cache, coalescing,
# drain and deadline tests under the race detector.
race-serve:
	$(GO) test -race ./internal/serve/...

# fuzz-smoke runs each fuzz target briefly — long enough to catch a fresh
# decoder panic or validation regression, short enough for CI. The committed
# corpora under */testdata/fuzz seed every run.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzDecodeBatch -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzConfigNormalize -fuzztime=$(FUZZTIME) ./internal/mc/
	$(GO) test -fuzz=FuzzOptionsNormalize -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzBoundRect -fuzztime=$(FUZZTIME) ./internal/array/

# loadtest-smoke drives a short closed-loop load burst through an in-process
# sramd with the real request mix; -check fails the target on zero recorded
# throughput, any transport error or any 5xx, so a serving-path regression
# that only shows under concurrency breaks the gate, not production.
loadtest-smoke:
	$(GO) run ./cmd/sramload -self -c 4 -warmup 500ms -duration 2s -check -report /dev/null

# yieldstream-smoke exercises the Monte Carlo engine end to end through the
# CLI: a scrambled-Sobol stream must converge inside a 10% relative CI on
# μ-3σ before exhausting its 256-sample budget, or the early-stop machinery is
# broken; a fixed-N run must print its summary report.
yieldstream-smoke:
	$(GO) run ./cmd/mcyield -stream -rel-ci 0.1 -n 256 -sampler sobol -metric hsnm -seed 2 | grep -q 'converged inside rel CI'
	$(GO) run ./cmd/mcyield -n 8 -metric hsnm -seed 2 | grep -q 'fraction with min margin'

# vet-obs gates the observability layer on its own: vet plus the obs package
# under the race detector (the sink/registry state is global and concurrent).
vet-obs:
	$(GO) vet ./internal/obs/... ./internal/cliutil/...
	$(GO) test -race ./internal/obs/...

# bench runs every benchmark across the module and archives the machine-
# readable log as BENCH_<date>.json for regression comparison.
bench:
	$(GO) test -json -bench=. -benchmem -run='^$$'  -count=3 ./... | tee BENCH_$(BENCH_DATE).json

# bench-compare re-runs the search hot-path benchmarks and fails if either
# regressed by more than 10% against the most recent archived BENCH_<date>.json
# baseline. The current log is written to a name the baseline glob cannot
# match, so an aborted run never becomes tomorrow's baseline. Each benchmark
# runs -count=3 and benchcompare keeps the fastest run, so one slow iteration
# on a loaded machine does not fail the gate.
BENCH_BASELINE = $(shell ls BENCH_2*.json 2>/dev/null | sort | tail -n 1)
bench-compare:
	@test -n "$(BENCH_BASELINE)" || { echo "bench-compare: no BENCH_<date>.json baseline; run 'make bench' first"; exit 1; }
	$(GO) test -json -bench='^(BenchmarkExhaustiveSearch16KB|BenchmarkExhaustiveSearch16KBPruned|BenchmarkHybridSearch16KB|BenchmarkModelEvaluation|BenchmarkMonteCarloYieldBatched)$$' -benchmem -run='^$$'  -count=3 . > bench_current.tmp.json || { rm -f bench_current.tmp.json; exit 1; }
	$(GO) test -json -bench='^(BenchmarkServeOptimizeCached|BenchmarkServeOptimizeCatalogHit|BenchmarkBatch64)$$' -benchmem -run='^$$'  -count=3 ./internal/serve/ >> bench_current.tmp.json || { rm -f bench_current.tmp.json; exit 1; }
	$(GO) test -json -bench='^BenchmarkCatalogLookup$$' -benchmem -run='^$$'  -count=3 ./internal/catalog/ >> bench_current.tmp.json || { rm -f bench_current.tmp.json; exit 1; }
	$(GO) test -json -bench='^(BenchmarkEvalSweep|BenchmarkPrepare|BenchmarkPrepareHybrid)$$' -benchmem -run='^$$'  -count=3 ./internal/array/ >> bench_current.tmp.json || { rm -f bench_current.tmp.json; exit 1; }
	$(GO) run ./cmd/benchcompare -baseline $(BENCH_BASELINE) -current bench_current.tmp.json \
		BenchmarkExhaustiveSearch16KB BenchmarkExhaustiveSearch16KBPruned BenchmarkHybridSearch16KB BenchmarkModelEvaluation \
		BenchmarkMonteCarloYieldBatched \
		BenchmarkServeOptimizeCached BenchmarkServeOptimizeCatalogHit BenchmarkBatch64 \
		BenchmarkCatalogLookup BenchmarkEvalSweep BenchmarkPrepare BenchmarkPrepareHybrid; \
		status=$$?; rm -f bench_current.tmp.json; exit $$status

# bench-prune prints the branch-and-bound evaluated/pruned/skipped breakdown
# for the golden capacity grid, so a bound change that prunes less — while
# staying correct — is visible in review as an efficiency drop.
bench-prune:
	$(GO) run ./cmd/prunestats

# catalog precomputes the default design-space grid into catalog.bin; sramd
# loads it with -catalog and answers grid lookups without running a search.
CATALOG ?= catalog.bin
catalog:
	$(GO) run ./cmd/sramcat build -o $(CATALOG)
