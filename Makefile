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
COVER_FLOOR_PROG ?= 91
COVER_FLOOR_REGALLOC ?= 97

.PHONY: all test test-short test-race bench experiments experiments-golden fuzz fuzz-quick fuzz-smoke cover oracle-guard vet clean

all: vet test test-race fuzz-quick

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

experiments:
	$(GO) run ./cmd/experiments -all

# experiments-golden rewrites cmd/experiments/testdata/all.golden (the
# stdout of `experiments -all`) and all.csv.golden (its -csv file), which
# TestAllGolden checks byte for byte. Regenerate only when a change is
# meant to move the paper's numbers, and say which numbers moved.
experiments-golden:
	$(GO) test ./cmd/experiments/ -count=1 -run TestAllGolden -update

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=60s ./internal/prog/
	$(GO) test -fuzz=FuzzFormatRoundTrip -fuzztime=30s ./internal/prog/
	$(GO) test -fuzz=FuzzRecipeDecode -fuzztime=30s ./internal/difftest/
	$(GO) test -fuzz=FuzzOracle -fuzztime=60s ./internal/difftest/
	$(GO) test -fuzz=FuzzFastCore -fuzztime=60s ./internal/difftest/
	$(GO) test -fuzz=FuzzArtifactDecode -fuzztime=30s ./internal/artifact/
	$(GO) test -fuzz=FuzzMemory -fuzztime=30s ./internal/sim/

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
			internal/workloads:$(COVER_FLOOR_WORKLOADS) internal/memhier:$(COVER_FLOOR_MEMHIER) \
			internal/prog:$(COVER_FLOOR_PROG) internal/regalloc:$(COVER_FLOOR_REGALLOC); do \
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
