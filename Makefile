# Developer entry points. `make check` is the tier-1 gate from
# ROADMAP.md: build, tests, race detector, vet, lint, plus one-round
# bench smokes (fast path, wire transports, batch, telemetry overhead),
# a short wire-codec fuzz and two-second runs of the out-of-process
# benchmark's cold and reload workloads so the cached, uncached and
# remote decide paths and hot reload → SYNC → replica install are
# exercised end to end on every merge.

GO ?= go

.PHONY: build test race vet lint check verify-policies fuzz-wire bench-smoke bench bench-obs bench-obs-smoke bench-fastpath bench-fastpath-smoke bench-wire bench-wire-smoke bench-batch bench-batch-smoke bench-client bench-client-smoke bench-replica bench-replica-smoke bench-e2e-smoke bench-compare clean

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

# lint runs the repo's own static analysis: go vet plus rbacvet, the
# custom passes enforcing engine invariants (engine-clock discipline,
# observer nil guards, snapshot immutability, one snapshot capture per
# batch, sync.Pool return discipline).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/rbacvet ./...

check: build test race vet lint verify-policies fuzz-wire bench-fastpath-smoke bench-wire-smoke bench-client-smoke bench-batch-smoke bench-obs-smoke bench-replica-smoke bench-e2e-smoke

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
fuzz-wire:
	$(GO) test ./internal/wire -fuzz=FuzzDecoder -fuzztime=5s
	$(GO) test ./internal/wire -fuzz=FuzzPayloadCodecs -fuzztime=5s
	$(GO) test ./internal/wire -fuzz=FuzzCheckRoundTrip -fuzztime=5s

# bench-smoke runs the cheap experiments to confirm the bench harness
# still works; `make bench` regenerates everything (slow).
bench-smoke: build
	$(GO) run ./cmd/bench -exp F1

bench: build
	$(GO) run ./cmd/bench

# bench-obs regenerates the observability-overhead series (BENCH_obs.json):
# the parallel CheckAccess workload under tracing off / metrics / sampled / ring /
# full, on the uncached and verdict-cached paths. The smoke variant runs
# one short round and leaves the committed JSON untouched.
bench-obs: build
	$(GO) run ./cmd/bench -exp OBS

bench-obs-smoke: build
	$(GO) run ./cmd/bench -exp OBS -smoke

# bench-fastpath regenerates the decision fast-path series
# (BENCH_fastpath.json): the OBS parallel workload with the verdict
# cache off and on. The smoke variant runs one short round and leaves
# the committed JSON untouched.
bench-fastpath: build
	$(GO) run ./cmd/bench -exp FASTPATH

bench-fastpath-smoke: build
	$(GO) run ./cmd/bench -exp FASTPATH -smoke

# bench-wire regenerates the remote-transport series (BENCH_wire.json):
# the same live engine checked over HTTP/JSON, single wire frames, wire
# batches, and the embedded client decision cache (the client_cached
# series — repeat allows served locally under epoch-push invalidation).
# The smoke variant runs one short round and leaves the committed JSON
# untouched.
bench-wire: build
	$(GO) run ./cmd/bench -exp WIRE

bench-wire-smoke: build
	$(GO) run ./cmd/bench -exp WIRE -smoke

# bench-client produces the client_cached transport series: it rides
# the WIRE experiment (one shared live engine keeps the four series
# comparable), so these are dependency aliases — `make check` lists
# bench-client-smoke explicitly, and make runs the shared recipe once.
bench-client: bench-wire

bench-client-smoke: bench-wire-smoke

# bench-batch regenerates the batch-native series (BENCH_batch.json):
# per-tuple loops vs CheckAccessBatch in process, and the PR 5 per-tuple
# CHECK_BATCH fan-out vs the batch-native backend over the wire. The
# smoke variant runs one short round and leaves the committed JSON
# untouched.
bench-batch: build
	$(GO) run ./cmd/bench -exp BATCH

bench-batch-smoke: build
	$(GO) run ./cmd/bench -exp BATCH -smoke

# bench-replica regenerates the replicated-read-fleet series
# (BENCH_replica.json): one leader streaming real wire SYNC snapshots
# to four fixed-capacity replicas, aggregate read throughput measured
# at fleet sizes 1/2/4 (see the capacity-model note on replicaBench).
# The smoke variant syncs a two-replica fleet and runs one short round.
bench-replica: build
	$(GO) run ./cmd/bench -exp REPLICA

bench-replica-smoke: build
	$(GO) run ./cmd/bench -exp REPLICA -smoke

# bench-e2e-smoke runs the repository's benchmark (BENCHMARK.json,
# benchmark/README.md) for two seconds on the workload where every
# decision is a verdict-cache miss and an insert: a real rbacd child,
# every verdict checked against the oracle, the cache's hit share gated
# (the exit code carries both). Then two seconds of the reload workload:
# hot policy reloads on a leader, SYNC to a replica and the replica's
# install, with every check against the replica held to the oracle.
# Then the multi-session batch probe: 200 256-tuple frames spanning 64
# sessions each; the probe exits 0 even when the server dies, so its
# verdict line is what is checked.
bench-e2e-smoke: build
	$(GO) run ./benchmark -workload cold_batch -seconds 2 -trace 0
	$(GO) run ./benchmark -workload reload_fleet -seconds 2 -trace 0
	$(GO) run ./benchmark -probe multi_session_batch | grep -q 'multi_session_batch: ok'

# bench-compare diffs two benchmark JSON series benchstat-style; the
# default matches the wire-batch identity rows of the two transport
# series, e.g. a fresh `make bench-wire` run against the committed batch
# series:
#   make bench-compare OLD=BENCH_wire.json NEW=BENCH_batch.json
OLD ?= BENCH_wire.json
NEW ?= BENCH_batch.json
bench-compare: build
	$(GO) run ./cmd/bench -compare $(OLD) $(NEW)

# clean removes build and gate leftovers only: the BENCH_*.json files
# are committed baselines, regenerated by their bench-* targets.
clean:
	$(GO) clean ./...
	rm -rf verify-findings.log benchmark/out
