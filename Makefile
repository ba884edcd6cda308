# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# gates in the same order.

GO ?= go

.PHONY: all build test race vet fmt verify-examples chaos fuzz cover check \
	bench bench-smoke bench-churn bench-churn-smoke race-stress bench-check \
	bench-lp

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet = the toolchain's vet plus this repository's own analyzers
# (internal/lint via cmd/sdme-vet).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/sdme-vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Fault-injection suite under the race detector, twice: reconnect
# storms, ack loss, wedged devices, epoch-fenced rollout and the full
# recovery-convergence schedule on both substrates. -count=2 defeats test
# caching and shakes out order-dependent flakes. The second block re-runs
# the survivability experiments (local fast failover, controller
# kill/restart, replicated-HA takeover) across a seed matrix so the
# acceptance claims hold beyond one lucky seed. The third block is the
# leader-kill matrix: every chaos seed crosses every -kill-leader-at
# phase, so the assassination lands at different points of the lease
# cycle (mid-heartbeat, mid-replication, right after a rollout).
CHAOS_SEEDS ?= 7 23 41
KILL_LEADER_AT ?= 150000 400000
chaos:
	$(GO) test -race -count=2 ./internal/faultinject/
	$(GO) test -race -count=2 -run 'Chaos|Recovery|Reconnect|Wedge|TwoPhase' \
		./internal/mgmt/ ./internal/live/ ./internal/experiments/
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos seed $$seed =="; \
		SDME_CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'Failover|Restart|HA' \
			./internal/experiments/ || exit 1; \
	done
	@for seed in $(CHAOS_SEEDS); do \
		for at in $(KILL_LEADER_AT); do \
			echo "== leader kill: seed $$seed, t=$$at us =="; \
			$(GO) run ./cmd/sdme-sim -controllers 3 -seed $$seed -kill-leader-at $$at || exit 1; \
		done; \
	done

# Fuzz smoke: every native fuzz target gets a short budget. The go tool
# accepts exactly one -fuzz target per invocation, hence one line each.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/packet/ -run '^FuzzUnmarshal$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/packet/ -run '^FuzzFragmentReassemble$$' -fuzz '^FuzzFragmentReassemble$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mgmt/ -run '^FuzzWire$$' -fuzz '^FuzzWire$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mgmt/ -run '^FuzzConfigDTO$$' -fuzz '^FuzzConfigDTO$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mgmt/ -run '^FuzzConfigDelta$$' -fuzz '^FuzzConfigDelta$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/controller/ -run '^FuzzJournalStream$$' -fuzz '^FuzzJournalStream$$' -fuzztime $(FUZZTIME)

# Coverage profile across all packages, with the per-function summary's
# total line printed at the end.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Statically verify the controller plan (candidate sets, loop freedom,
# hot-potato optimality, LB weights) on both example topologies.
verify-examples:
	$(GO) run ./cmd/sdme-topo -topology campus -verify
	$(GO) run ./cmd/sdme-topo -topology waxman -verify

# Dataplane throughput/latency grid (workers × shards, both substrates) →
# results/bench_dataplane.json. Exits nonzero if the simulated substrate
# fails the ≥2× 16-vs-1-worker scaling gate (the sim numbers come from a
# deterministic virtual-time pipeline model, so the gate is reproducible
# on any host, including single-core CI). bench-smoke is the reduced CI
# variant.
bench:
	$(GO) run ./cmd/sdme-bench -suite dataplane -out results

bench-smoke:
	$(GO) run ./cmd/sdme-bench -suite dataplane -smoke -out results

# Incremental-pipeline churn grid (full vs delta rollout across churn
# rates) → results/bench_churn.json. Exits nonzero if the incremental
# rollout costs more than half the full-rollout bytes at the lowest rate
# (pushed bytes are encoded envelope sizes, deterministic per seed).
bench-churn:
	$(GO) run ./cmd/sdme-bench -suite churn -out results

bench-churn-smoke:
	$(GO) run ./cmd/sdme-bench -suite churn -smoke -out results

# Concurrency stress under the race detector: 8 writer goroutines + a
# sweeper on the sharded tables (duplicate tunnel-ID and resurrection
# invariants), plus the live worker-pool ordering/shutdown suite.
# -count=5 shakes out schedule-dependent interleavings.
race-stress:
	$(GO) test -race -count=5 -run 'Stress|WorkerPool|FlowWorkerHash' \
		./internal/flowtable/ ./internal/live/

# One pass of the LP benchmarks on the real campus/Waxman Eq. (1)/(2)
# instances, so they keep compiling and running; add -benchtime/-count
# for numbers worth comparing.
bench-lp:
	$(GO) test ./internal/controller/ -run '^$$' -bench SolveLB -benchtime 1x

# perfbench is its own module (perfbench/go.mod), so the root ./... never
# compiles it; this vets and tests it against the current sources.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: build fmt vet verify-examples race bench-check
