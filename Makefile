# Developer entry points. `make check` is the tier-1 gate from
# ROADMAP.md: build, tests, race detector, vet, lint, bounded
# verification of the example policies, short wire-codec,
# policy-parser, allow-cache key, sync-snapshot install,
# periodic-expression, rbacd HTTP-body and live wire-stream fuzzes, one
# round of every paper-experiment benchmark, and two-second runs of the
# out-of-process benchmark's cold, reload, hot and churn workloads so
# the cached, uncached and remote decide paths, the wire reader's inline
# hits, hot reload → SYNC → replica install, and HTTP session writes
# with EPOCH_PUSH into client caches are exercised end to end on every
# merge.

GO ?= go

.PHONY: build test race vet lint check verify-policies fuzz-wire fuzz-policy fuzz-cache fuzz-sync fuzz-clock fuzz-http bench-smoke bench-e2e-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Callers drain each other's queued work and the caches publish
# copy-on-write views concurrently; the race detector is part of the
# merge gate, not an optional extra.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the repo's own static analysis: gofmt (any file it would
# reformat fails the step), go vet, and rbacvet, the custom passes
# enforcing engine invariants (engine-clock discipline, nil guards on
# the optional trace, sampler, slow-ring and detector instrument
# pointers, snapshot immutability, one snapshot capture per batch,
# sync.Pool return discipline) and, over the whole module, unused:
# every exported declaration under internal/ and client/ is used by a
# non-test file or by another package's tests.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/rbacvet ./...

check: build test race vet lint verify-policies fuzz-wire fuzz-policy fuzz-cache fuzz-sync fuzz-clock fuzz-http bench-smoke bench-e2e-smoke

# verify-policies runs the bounded symbolic verifier over every example
# policy. Files named *-violating.acp are seeded-unsafe fixtures and
# MUST be rejected (error-severity finding, non-zero exit); every other
# policy must verify clean at error severity. Findings go to
# verify-findings.log so CI can upload them when the gate fails.
verify-policies: build
	@rm -f verify-findings.log
	@status=0; \
	for f in examples/policies/*.acp; do \
		case "$$f" in \
		*-violating.acp) \
			if $(GO) run ./cmd/policyc -verify "$$f" >>verify-findings.log 2>&1; then \
				echo "verify-policies: FAIL $$f (seeded violation not caught)"; status=1; \
			else \
				echo "verify-policies: ok   $$f (rejected as expected)"; \
			fi ;; \
		*) \
			if $(GO) run ./cmd/policyc -verify "$$f" >>verify-findings.log 2>&1; then \
				echo "verify-policies: ok   $$f"; \
			else \
				echo "verify-policies: FAIL $$f"; status=1; \
			fi ;; \
		esac; \
	done; \
	if [ $$status -ne 0 ]; then echo "verify-policies: findings in verify-findings.log"; fi; \
	exit $$status

# fuzz-wire gives each wire-codec fuzz target a short randomized budget
# on top of the checked-in seed corpus (internal/wire/testdata/fuzz):
# enough to catch a regressed panic path without stalling the gate.
# FuzzServerStream does the same for a live server connection, whose
# reader answers verdict-cache hits itself.
fuzz-wire:
	$(GO) test ./internal/wire -fuzz=FuzzDecoder -fuzztime=5s
	$(GO) test ./internal/wire -fuzz=FuzzPayloadCodecs -fuzztime=5s
	$(GO) test ./internal/wire -fuzz=FuzzCheckRoundTrip -fuzztime=5s
	$(GO) test ./internal/wire -run '^$$' -fuzz=FuzzServerStream -fuzztime=5s

# fuzz-policy gives the .acp parser the same short budget on top of its
# seeds (the example policies plus internal/policy/testdata/fuzz):
# whatever it accepts must format, re-parse and format to the same text.
fuzz-policy:
	$(GO) test ./internal/policy -fuzz=FuzzParse -fuzztime=5s

# fuzz-cache gives the allow-cache key codec shared by the engine fast
# path and the client cache the same budget: two field tuples must
# encode equal keys exactly when they are equal, and a field over 255
# bytes must be unencodable. Then the table itself against a model:
# random stores, lookups and invalidations, some keys forced onto one
# hash, where every hit must be the key's own last store under the
# lookup's capture.
fuzz-cache:
	$(GO) test ./internal/allowcache -run '^$$' -fuzz=FuzzAppendKey -fuzztime=5s
	$(GO) test ./internal/allowcache -run '^$$' -fuzz=FuzzTableModel -fuzztime=5s

# fuzz-sync gives the sync-snapshot install — the bytes a replica takes
# from its leader — the same budget, on a replica bootstrapped empty and
# seeded with exports of the example policies (plus testdata/fuzz):
# nothing may panic and an accepted install must keep the invariants.
fuzz-sync:
	$(GO) test . -run '^$$' -fuzz=FuzzInstallSyncSnapshot -fuzztime=5s

# fuzz-clock gives the periodic-expression parser the same budget: an
# accepted pattern must round-trip through String, and Next/Prev must
# terminate on it with instants that match.
fuzz-clock:
	$(GO) test ./internal/clock -run '^$$' -fuzz=FuzzParsePattern -fuzztime=5s

# fuzz-http gives rbacd's HTTP request bodies — check batches, session,
# activation and context JSON, and policy text — the same budget over
# cmd/rbacd/testdata/fuzz: nothing may panic, every status must be one
# the handlers map (never a 5xx), and the store's invariants must hold.
fuzz-http:
	$(GO) test ./cmd/rbacd -run '^$$' -fuzz=FuzzHTTPBodies -fuzztime=5s

# bench-smoke runs every root benchmark in bench_test.go once: the
# paper experiments (F1, E1-E8, ablations A1-A3), BenchmarkOpen and
# BenchmarkColdBatch (cold_batch in process; ~2 s of set-up), so a
# change that breaks an experiment fails the merge gate. It takes
# 26–37 s on a shared 2-vCPU host, against 7.7 s for the six per-series
# smokes of the retired experiment CLI it replaces. `go test -bench=.
# -benchmem` prints the full series; end-to-end and per-layer
# measurements come from the benchmark (BENCHMARK.json).
bench-smoke: build
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# bench-e2e-smoke runs the repository's benchmark (BENCHMARK.json,
# benchmark/README.md) for two seconds on the workload where every
# decision is a verdict-cache miss and an insert: a real rbacd child,
# every verdict checked against the oracle, the cache's hit share gated
# (the exit code carries both). Then two seconds of the reload workload:
# hot policy reloads on a leader, SYNC to a replica and the replica's
# install, with every check against the replica held to the oracle.
# Then two seconds of the per-tuple CHECK workload, where nearly every
# check is a verdict-cache hit the wire reader answers itself, each
# verdict held to the oracle and the hit share gated. Then two seconds
# of the churn workload: session lifecycles over HTTP beside
# client-cached reads that EPOCH_PUSH keeps invalidating, every verdict
# held to the oracle. Then the multi-session batch probe: 200 256-tuple
# frames spanning 64 sessions each; the probe exits 0 even when the
# server dies, so its verdict line is what is checked.
bench-e2e-smoke: build
	$(GO) run ./benchmark -workload cold_batch -seconds 2 -trace 0
	$(GO) run ./benchmark -workload reload_fleet -seconds 2 -trace 0
	$(GO) run ./benchmark -workload hot_wire -seconds 2 -trace 0
	$(GO) run ./benchmark -workload churn_mixed -seconds 2 -trace 0
	$(GO) run ./benchmark -probe multi_session_batch | grep -q 'multi_session_batch: ok'

# clean removes build and gate leftovers.
clean:
	$(GO) clean ./...
	rm -rf verify-findings.log benchmark/out
