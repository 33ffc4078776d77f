GO ?= go

.PHONY: all build vet lint lint-bench test race check cover fuzz bench serve-smoke agent-smoke scenario-smoke

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

# Smoke-scale run of the fault-taxonomy benchmark: every fault kind at
# both channel counts on a short flat carrier. Proves the scenario
# subsystem, the joint multivariate detector and every baseline still
# drive end to end. (That the multivariate pass is bit-identical to the
# sequential row-major oracle on every smoke cell is proved by
# internal/core's oracle_test.go.) -scenjson '' leaves any full-grid
# BENCH_scenarios.json from an earlier local run intact (BENCH_*.json
# files are gitignored, not checked in).
scenario-smoke:
	$(GO) run ./cmd/cabd-bench -exp scenarios -smoke -scenjson ''

check: vet build lint race serve-smoke agent-smoke scenario-smoke

# Coverage floors, one package:percent pair per gated package:
#   internal/obs (90): pure bookkeeping code with a deterministic fake
#     clock has no excuse for untested branches.
#   internal/lint/... (85): the analyzers plus the cfg and dataflow
#     packages backing the path-sensitive rules; an analyzer whose
#     branches go untested silently stops enforcing its invariant.
#   internal/ml/forest (85): parallel training and the recorded-leaf
#     training distributions are promised bit-identical to the
#     sequential builder and the per-row walk, and an untested branch
#     there is an unverified promise.
#   internal/core (88): the detector itself. The candidate stage (the
#     multivariate union, both flood guards), the collective merge and
#     the scoring and classification fast paths promise golden and
#     oracle equality, so untested branches there are unverified
#     promises too.
#   internal/multi (85): the d-channel Series type and the detector
#     wrapper over core that the multivariate golden replays.
#   internal/sax (95): the SAX encoders and the four-window kernel
#     promise words byte-identical to the per-window reference.
#   internal/stats (90): the selection median promises the sorted
#     copy's middle, and every robust score downstream reads it.
#   internal/server (85): every route, the one worker budget and the
#     stream table's close and eviction races; an untested handler is a
#     wire contract nobody checks.
COVER_FLOORS := internal/obs:90 internal/lint/...:85 internal/ml/forest:85 internal/core:88 internal/multi:85 internal/sax:95 internal/stats:90 internal/server:85
cover:
	@for pf in $(COVER_FLOORS); do \
		pkg=$${pf%:*}; floor=$${pf##*:}; name=$${pkg%/...}; \
		echo "$(GO) test -coverprofile=cover.out ./$$pkg"; \
		$(GO) test -coverprofile=cover.out ./$$pkg || exit 1; \
		$(GO) tool cover -func=cover.out | awk -v name=$$name -v floor=$$floor '/^total:/ { \
			sub(/%/, "", $$3); \
			if ($$3 + 0 < floor + 0) { \
				printf "%s coverage %s%% is below the %s%% floor\n", name, $$3, floor; exit 1 \
			} \
			printf "%s coverage %s%% (floor %s%%)\n", name, $$3, floor }' || exit 1; \
	done

# A short native fuzzing campaign for every Fuzz target in the module:
# the targets are discovered with `go test -list`, so a new one cannot be
# missed. Each target gets 30 s.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "$(GO) test -run '^$$' -fuzz '^$$target\$$' -fuzztime 30s $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 30s $$pkg || exit 1; \
	done

# -run '^$$' keeps the unit-test suite out of benchmark runs (without it
# every `make bench` pays the full test suite first).
bench:
	$(GO) test -run '^$$' -bench=. -benchmem
