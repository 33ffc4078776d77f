GO ?= go

.PHONY: all build vet lint lint-bench test race check cover fuzz bench bench-guard serve-smoke agent-smoke stream-smoke scenario-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The repo's own static analysis: cabd-lint enforces the determinism,
# panic-isolation, clock-injection, lock-balance, cancel-leak, goroutine-
# leak, and hot-path-allocation invariants (see DESIGN.md). A reintroduced
# time.Now() or a leaked Lock in library code fails this target. The
# driver lints GOMAXPROCS packages concurrently by default; output is
# byte-identical at any -parallel width.
lint:
	$(GO) run ./cmd/cabd-lint ./...

# Smoke benchmark of the linter itself: one timed full-tree lint, so a
# rule that regresses the edit-lint loop (an analyzer gone quadratic, a
# CFG blowup) is visible in CI logs before anyone feels it locally.
lint-bench:
	@start=$$(date +%s%N); \
	$(GO) run ./cmd/cabd-lint ./... || exit $$?; \
	end=$$(date +%s%N); \
	printf 'lint-bench: full-tree cabd-lint took %d ms\n' $$(( (end - start) / 1000000 ))

# Race-enabled run of the full suite, including the fault-injection
# harness (internal/faultgen) — the robustness gate.
race:
	$(GO) test -race ./...

# End-to-end smoke of the serving binary: boot cabd-serve on an
# ephemeral port, run a detect request, scrape /metrics, and verify the
# SIGTERM drain exits cleanly.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the collector: cabd-serve + cabd-agent connected
# through cabd-faultproxy — forwarding, SIGHUP hot reload, a 503 fault
# window (spill + replay, zero loss), and the SIGTERM drain.
agent-smoke:
	./scripts/agent_smoke.sh

# Smoke-scale run of the streaming benchmark: the incremental engine
# must emit detections bit-identical to the full-rerun oracle at every
# window size (the experiment exits non-zero on divergence).
stream-smoke:
	$(GO) run ./cmd/cabd-bench -exp stream -streamjson BENCH_stream.json

# Smoke-scale run of the fault-taxonomy benchmark: every fault kind at
# both channel counts on a short flat carrier. Proves the scenario
# subsystem, the joint multivariate detector and every baseline still
# drive end to end, and that the multivariate pass stays bit-identical
# to the sequential row-major oracle (the experiment exits non-zero on
# divergence). -scenjson '' leaves any full-grid BENCH_scenarios.json
# from an earlier local run intact (BENCH_*.json files are gitignored,
# not checked in).
scenario-smoke:
	$(GO) run ./cmd/cabd-bench -exp scenarios -smoke -scenjson ''

check: vet build lint race serve-smoke agent-smoke stream-smoke scenario-smoke

# Coverage floor for the observability layer: pure bookkeeping code with a
# deterministic fake clock has no excuse for untested branches.
OBS_COVER_FLOOR := 90
# Coverage floor for the lint engine (the analyzers plus the cfg and
# dataflow packages backing the path-sensitive rules): an analyzer whose
# branches go untested silently stops enforcing its invariant.
LINT_COVER_FLOOR := 85
# Coverage floor for the forest: the classifier's batch/parallel fast
# paths are promised bit-identical to their sequential oracles, and an
# untested branch there is an unverified promise.
FOREST_COVER_FLOOR := 85
# Coverage floor for the multivariate detector: its parallel scoring,
# degradation and collective-merge paths all promise oracle equality,
# so untested branches there are unverified promises too.
MULTI_COVER_FLOOR := 85
cover:
	$(GO) test -coverprofile=cover.out ./internal/obs
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { \
		sub(/%/, "", $$3); \
		if ($$3 + 0 < $(OBS_COVER_FLOOR)) { \
			printf "internal/obs coverage %s%% is below the $(OBS_COVER_FLOOR)%% floor\n", $$3; exit 1 \
		} \
		printf "internal/obs coverage %s%% (floor $(OBS_COVER_FLOOR)%%)\n", $$3 }'
	$(GO) test -coverprofile=cover-lint.out ./internal/lint/...
	@$(GO) tool cover -func=cover-lint.out | awk '/^total:/ { \
		sub(/%/, "", $$3); \
		if ($$3 + 0 < $(LINT_COVER_FLOOR)) { \
			printf "internal/lint coverage %s%% is below the $(LINT_COVER_FLOOR)%% floor\n", $$3; exit 1 \
		} \
		printf "internal/lint coverage %s%% (floor $(LINT_COVER_FLOOR)%%)\n", $$3 }'
	$(GO) test -coverprofile=cover-forest.out ./internal/ml/forest
	@$(GO) tool cover -func=cover-forest.out | awk '/^total:/ { \
		sub(/%/, "", $$3); \
		if ($$3 + 0 < $(FOREST_COVER_FLOOR)) { \
			printf "internal/ml/forest coverage %s%% is below the $(FOREST_COVER_FLOOR)%% floor\n", $$3; exit 1 \
		} \
		printf "internal/ml/forest coverage %s%% (floor $(FOREST_COVER_FLOOR)%%)\n", $$3 }'
	$(GO) test -coverprofile=cover-multi.out ./internal/multi
	@$(GO) tool cover -func=cover-multi.out | awk '/^total:/ { \
		sub(/%/, "", $$3); \
		if ($$3 + 0 < $(MULTI_COVER_FLOOR)) { \
			printf "internal/multi coverage %s%% is below the $(MULTI_COVER_FLOOR)%% floor\n", $$3; exit 1 \
		} \
		printf "internal/multi coverage %s%% (floor $(MULTI_COVER_FLOOR)%%)\n", $$3 }'

# Short native fuzzing campaigns against the sanitizing entry points.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDetect -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzStreamPush -fuzztime 30s .

# Raw-speed regression gate: run the scale sweep (optimized pass vs the
# sequential row-major oracle), then hold its speedup rows to the
# checked-in per-core tolerances. Exits non-zero on any detection
# divergence or a >20% speedup regression.
bench-guard:
	$(GO) run ./cmd/cabd-bench -exp scale -json BENCH_runtime.json
	$(GO) run ./cmd/cabd-benchguard -json BENCH_runtime.json -tol scripts/bench_tolerances.json

# -run '^$$' keeps the unit-test suite out of benchmark runs (without it
# every `make bench` pays the full test suite first).
bench:
	$(GO) test -run '^$$' -bench=. -benchmem

# Quick old-vs-new smoke of the INN probe engine (legacy vs rank).
bench-inn:
	$(GO) test -run '^$$' -bench 'BenchmarkINN' -benchmem .
