GO ?= go

.PHONY: all build vet test race flake chaos fabric-soak load-soak bench-obs bench-match bench-match-smoke bench-fabric bench-fabric-smoke bench-ws bench-ws-smoke bench-lint bench-lint-smoke bench-crawl bench-crawl-smoke bench-store bench-store-smoke lint fmt-check ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The dispatch orchestrator and crawler are heavily concurrent; the
# race detector is part of the standard gate. The second pass pins
# GOMAXPROCS above the worker counts used in tests so the scheduler
# actually interleaves dispatch workers, spool writers, and stats
# observers on separate Ps.
race:
	$(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/dispatch/... ./internal/crawler/... ./internal/obs/... ./internal/fabric/...
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'Chaos' ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'TestFabricSoak' ./internal/fabric/
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'TestLoadSoak' ./internal/loadgen/

# Flake hunt (ROADMAP item 1): the concurrency-heavy packages under the
# race detector, FLAKE_COUNT runs of every test at each of
# GOMAXPROCS=1, 2 and 4, plus the -short core chaos soak. It keeps
# going past a failing pass so one run yields a pass rate, and exits
# non-zero if any pass failed. Not part of ci: at the default count it
# takes ~12 minutes on 2 cores. A flake it finds is fixed in the
# program, never by loosening the test.
FLAKE_COUNT ?= 5
FLAKE_PKGS = ./internal/webserver/ ./internal/loadgen/ ./internal/wsproto/ ./internal/dispatch/ ./internal/fabric/ ./internal/colstore/

flake:
	@fail=0; for p in 1 2 4; do \
		echo "flake: GOMAXPROCS=$$p -count=$(FLAKE_COUNT)"; \
		GOMAXPROCS=$$p $(GO) test -race -count=$(FLAKE_COUNT) $(FLAKE_PKGS) || fail=1; \
		GOMAXPROCS=$$p $(GO) test -race -short -count=$(FLAKE_COUNT) -run 'Chaos' ./internal/core/ || fail=1; \
	done; exit $$fail

# Chaos soak (DESIGN.md §11, OPERATIONS.md "Chaos testing"): full-size
# crawls under every faultnet profile, asserting termination, settled
# accounting, no goroutine leaks, and the byte-identity guarantees of
# the fault-seed determinism contract. `ci` runs the -short variant via
# the race target; this target is the full soak.
chaos:
	$(GO) test -count=1 -run 'Chaos' -v ./internal/core/
	$(GO) test -count=1 ./internal/faultnet/ ./internal/wsproto/ ./internal/browser/

# Distributed-crawl soak (OPERATIONS.md "Distributed crawls"): the
# coordinator + worker fleet under hostile faultnet profiles (timing
# distortion and mid-stream connection death) plus the kill/restart and
# real-process e2e determinism suites, full-size and race-checked.
# `ci` runs the -short soak via the race target; this is the full soak.
fabric-soak:
	$(GO) test -race -count=1 -run 'TestFabricSoak|TestFabricSurvives' -v ./internal/fabric/
	$(GO) test -count=1 -run 'TestE2EDistributedCrawl' -v ./internal/fabric/

# Hot-path observability benchmarks. Counter/gauge/histogram ops must
# report 0 allocs/op; BENCH_obs.json records the accepted baseline.
bench-obs:
	$(GO) test ./internal/obs -bench . -benchmem -run '^$$'

# Match-engine benchmarks: indexed engine vs the retained reference
# oracle, cache-hit path (must stay 0 allocs/op), and tokenizer.
# BENCH_match.json records the accepted baseline.
bench-match:
	$(GO) test ./internal/filterlist -bench Match -benchmem -run '^$$'

# One-iteration smoke run for ci: proves the benchmark corpus still
# builds and both engines execute, without paying full -benchtime.
bench-match-smoke:
	$(GO) test ./internal/filterlist -bench Match -benchtime 1x -run '^$$'

# Fabric dispatch benchmarks: page-frame encode/decode and a complete
# coordinator+worker crawl round trip per iteration. BENCH_fabric.json
# records the accepted baseline.
bench-fabric:
	$(GO) test ./internal/fabric -bench Fabric -benchmem -run '^$$'

bench-fabric-smoke:
	$(GO) test ./internal/fabric -bench Fabric -benchtime 1x -run '^$$'

# WebSocket serving-plane benchmarks (OPERATIONS.md "Load testing &
# capacity"): pooled-codec micro-benchmarks (steady-state echo must
# report 0 allocs/op) plus end-to-end loadgen runs over loopback TCP
# reporting conns/s, msgs/s, and p99 round-trip latency.
# BENCH_ws.json records the accepted baseline.
bench-ws:
	$(GO) test ./internal/wsproto -bench WS -benchmem -run '^$$'
	$(GO) test ./internal/loadgen -bench WSLoad -benchmem -run '^$$'

bench-ws-smoke:
	$(GO) test ./internal/wsproto -bench WS -benchtime 1x -run '^$$'
	$(GO) test ./internal/loadgen -bench WSLoad -benchtime 1x -run '^$$'

# Load-generator soak (OPERATIONS.md "Load testing & capacity"): the
# full wsload fleet against an in-process echo server under the slow
# and stall faultnet profiles, asserting complete echo accounting,
# zero verify errors, and a leak-free exit. `ci` runs the -short
# variant via the race target; this target is the full soak.
load-soak:
	$(GO) test -count=1 -run 'TestLoadSoak' -v ./internal/loadgen/

# Project-invariant analyzers, syntax tier (determinism, maporder,
# atomicfield, observeonly, spanclose) plus the typed tier (bufown,
# poolpair, deadline, lockguard), which type-checks the module from
# source. Exits non-zero on any unsuppressed finding; see DESIGN.md §9
# for the catalogue and the //lint:allow policy. The run is timed so a
# type-check regression shows up in CI logs before it hurts.
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/wslint ./... || exit $$?; \
	end=$$(date +%s); \
	echo "lint: clean in $$((end - start))s"

# One-iteration lint benchmark: proves the typed loader still
# type-checks the whole module and pins wall time (BENCH_lint.json
# records the accepted baseline; see bench-lint for full runs).
bench-lint:
	$(GO) test ./internal/lint -bench Lint -benchmem -run '^$$'

bench-lint-smoke:
	$(GO) test ./internal/lint -bench Lint -benchtime 1x -run '^$$'

# End-to-end crawl benchmark (OPERATIONS.md "Crawl capacity"): a fixed
# seeded synthetic web crawled through the full pipeline, reporting
# pages/sec, ns/page, B/page, and allocs/page for both the shipping
# (pooled + group-committed) configuration and the retained reference
# path. BENCH_crawl.json records the accepted baseline.
bench-crawl:
	$(GO) test ./internal/core -bench CrawlPipeline -benchtime 3x -benchmem -run '^$$'

# One-iteration smoke for ci: proves both pipeline configurations still
# crawl the bench world end to end, without paying full -benchtime.
bench-crawl-smoke:
	$(GO) test ./internal/core -bench CrawlPipeline -benchtime 1x -run '^$$'

# Columnar store benchmarks (DESIGN.md §15, OPERATIONS.md "Query
# service"): the hot ingest path (fold + shard buffer, pinned at 1
# alloc/op by TestStoreIngestAllocs), the fsync-dominated group-commit
# seal, cold-start segment replay, and the steady-state query service
# over the cached snapshot. BENCH_store.json records the accepted
# baseline.
bench-store:
	$(GO) test ./internal/colstore -bench Store -benchmem -run '^$$'

# One-iteration smoke for ci: proves ingest, seal, replay, and query
# still execute end to end without paying full -benchtime.
bench-store-smoke:
	$(GO) test ./internal/colstore -bench Store -benchtime 1x -run '^$$'

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

ci: fmt-check vet build lint test race bench-match-smoke bench-fabric-smoke bench-ws-smoke bench-lint-smoke bench-crawl-smoke bench-store-smoke

clean:
	$(GO) clean ./...
