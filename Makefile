# Convenience targets for the boosting reproduction.

GO ?= go

# Coverage floors (percent) enforced by `make cover`. Set below current
# coverage so refactors that shed tests fail fast; raise as coverage grows.
COVER_FLOOR_SIM ?= 78
COVER_FLOOR_CORE ?= 90
COVER_FLOOR_DATAFLOW ?= 90
COVER_FLOOR_PASSES ?= 95
COVER_FLOOR_MACHINE ?= 75
COVER_FLOOR_DYNSCHED ?= 85
COVER_FLOOR_WORKLOADS ?= 75
COVER_FLOOR_MEMHIER ?= 90

.PHONY: all test test-short test-race bench bench-json bench-simcore bench-simcore-check bench-compile bench-compile-check bench-artifact bench-memhier bench-memhier-check experiments fuzz fuzz-quick fuzz-smoke cover oracle-guard vet clean

all: vet test test-race fuzz-quick

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# bench-json measures boostd's /v1/simulate throughput and latency
# percentiles (hot vs cold response cache) and writes BENCH_service.json.
bench-json:
	BOOSTD_BENCH_JSON=$(CURDIR)/BENCH_service.json $(GO) test -run TestWriteBenchJSON -count=1 ./internal/service/
	@echo "wrote BENCH_service.json"

# bench-simcore measures the fast core and its test oracle (sim.ExecOracle,
# the "legacy" row) on the long kernels and rewrites the committed
# BENCH_simcore.json baseline. It fails if the fast core has lost its
# headline properties (>=3x over legacy, allocation-free steady state), so
# a regressed baseline cannot be committed.
bench-simcore:
	SIMCORE_BENCH_JSON=$(CURDIR)/BENCH_simcore.json $(GO) test -run TestWriteSimcoreBenchJSON -count=1 ./internal/sim/
	@echo "wrote BENCH_simcore.json"

# bench-simcore-check re-measures the fast core and fails if it runs >15%
# slower than the committed BENCH_simcore.json baseline. CI runs this.
bench-simcore-check:
	SIMCORE_BENCH_BASELINE=$(CURDIR)/BENCH_simcore.json $(GO) test -run TestSimcoreBenchRegression -count=1 -v ./internal/sim/

# bench-compile measures trace-scheduler compile time (analysis cache on
# vs off) over every workload × {NoBoost, MinBoost3, Boost7} and rewrites
# the committed BENCH_compile.json baseline. It fails if caching does not
# improve aggregate compile time, so a baseline that lost the
# optimization cannot be committed.
bench-compile:
	COMPILE_BENCH_JSON=$(CURDIR)/BENCH_compile.json $(GO) test -run TestWriteCompileBenchJSON -count=1 ./internal/core/
	@echo "wrote BENCH_compile.json"

# bench-compile-check re-measures cached compile time and fails if it runs
# >15% slower than the committed BENCH_compile.json baseline. CI runs this.
bench-compile-check:
	COMPILE_BENCH_BASELINE=$(CURDIR)/BENCH_compile.json $(GO) test -run TestCompileBenchRegression -count=1 -v ./internal/core/

# bench-artifact measures warm-start latency — cold compile vs decoding
# an artifact from the disk store vs fetching it from a boostd peer — and
# rewrites BENCH_artifact.json. It fails if a disk-warm start is not at
# least 5x faster than a cold compile, so a baseline that lost the point
# of the artifact cache cannot be committed.
bench-artifact:
	ARTIFACT_BENCH_JSON=$(CURDIR)/BENCH_artifact.json $(GO) test -run TestWriteArtifactBenchJSON -count=1 .
	@echo "wrote BENCH_artifact.json"

# bench-memhier measures the fast core under the stock and busiest
# memory hierarchies against the perfect-memory run and rewrites the
# committed BENCH_memhier.json baseline. It fails if a hierarchy costs
# more than 4x the perfect-memory run, so a bloated timing model cannot
# be committed.
bench-memhier:
	MEMHIER_BENCH_JSON=$(CURDIR)/BENCH_memhier.json $(GO) test -run TestWriteMemhierBenchJSON -count=1 ./internal/sim/
	@echo "wrote BENCH_memhier.json"

# bench-memhier-check re-measures the hierarchy runs and fails if one is
# >15% slower than the committed BENCH_memhier.json baseline, or if the
# timing model's access/stall counts drifted. CI runs this.
bench-memhier-check:
	MEMHIER_BENCH_BASELINE=$(CURDIR)/BENCH_memhier.json $(GO) test -run TestMemhierBenchRegression -count=1 -v ./internal/sim/

experiments:
	$(GO) run ./cmd/experiments -all

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=60s ./internal/prog/
	$(GO) test -fuzz=FuzzFormatRoundTrip -fuzztime=30s ./internal/prog/
	$(GO) test -fuzz=FuzzRecipeDecode -fuzztime=30s ./internal/difftest/
	$(GO) test -fuzz=FuzzOracle -fuzztime=60s ./internal/difftest/
	$(GO) test -fuzz=FuzzFastCore -fuzztime=60s ./internal/difftest/
	$(GO) test -fuzz=FuzzArtifactDecode -fuzztime=30s ./internal/artifact/

# fuzz-quick is the pre-commit-sized differential campaign: ten seconds
# of random programs plus the reproducer corpus. `make all` runs it; use
# fuzz-smoke for the full minute.
fuzz-quick:
	$(GO) run ./cmd/boostfuzz -duration 10s
	$(GO) run ./cmd/boostfuzz -replay internal/difftest/testdata/corpus

# fuzz-smoke is the CI-sized differential campaign: one minute of random
# programs through every configuration, then a replay of the reproducer
# corpus. Exits nonzero on any divergence.
fuzz-smoke:
	$(GO) run ./cmd/boostfuzz -duration 60s
	$(GO) run ./cmd/boostfuzz -replay internal/difftest/testdata/corpus

# cover enforces statement-coverage floors on the packages the
# differential oracle and golden-trace suite lean on: the simulator, the
# scheduler and its analysis/pass managers, the machine models, the
# dynamic scheduler and the workloads.
cover:
	@set -e; for spec in internal/sim:$(COVER_FLOOR_SIM) internal/core:$(COVER_FLOOR_CORE) \
			internal/dataflow:$(COVER_FLOOR_DATAFLOW) internal/passes:$(COVER_FLOOR_PASSES) \
			internal/machine:$(COVER_FLOOR_MACHINE) internal/dynsched:$(COVER_FLOOR_DYNSCHED) \
			internal/workloads:$(COVER_FLOOR_WORKLOADS) internal/memhier:$(COVER_FLOOR_MEMHIER); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) test -cover ./$$pkg/ | awk '{for(i=1;i<=NF;i++) if ($$i=="coverage:") {sub(/%/,"",$$(i+1)); print $$(i+1)}}'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage output for $$pkg"; exit 1; fi; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
		if [ "$$(awk -v p=$$pct -v f=$$floor 'BEGIN{print (p+0 >= f+0) ? 1 : 0}')" != "1" ]; then \
			echo "cover: $$pkg coverage $$pct% fell below the $$floor% floor"; exit 1; \
		fi; \
	done

# oracle-guard builds the production commands and fails if any of them
# links sim.ExecOracle, the interpreter kept only as the fast core's test
# oracle. Go's linker drops functions nothing calls, so the symbol shows
# up in `go tool nm` exactly when a production path calls the oracle.
oracle-guard:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for cmd in boostd boostsim experiments; do \
		$(GO) build -o "$$dir/$$cmd" ./cmd/$$cmd; \
		$(GO) tool nm "$$dir/$$cmd" > "$$dir/$$cmd.nm"; \
		if grep -q 'boosting/internal/sim\.ExecOracle' "$$dir/$$cmd.nm"; then \
			echo "oracle-guard: cmd/$$cmd links boosting/internal/sim.ExecOracle"; exit 1; \
		fi; \
		echo "oracle-guard: cmd/$$cmd does not link sim.ExecOracle"; \
	done

vet:
	$(GO) vet ./...

clean:
	$(GO) clean -testcache
