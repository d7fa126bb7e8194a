GO ?= go

.PHONY: all build vet lint lint-fast test race check chaos chaos-smoke fuzz-smoke bench bench-smoke bench-json bench-verify reprod-smoke wal-smoke experiments examples clean

all: build vet test

# check is the pre-PR gate: everything that must be green before merging.
# lint runs at tier 2 (type-aware dataflow) and audits the tree's
# suppression directives; the tier-2 smoke budget (<10s on the whole
# tree) is asserted by TestTierTwoBudget in internal/lint.
check: build vet lint test race chaos-smoke fuzz-smoke bench-smoke bench-verify reprod-smoke wal-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the full project static-analysis suite — tier 1 (syntactic)
# plus tier 2 (go/types-backed dataflow: detflow, epsflow) — and then
# audits //lint:ignore directives for staleness. See internal/lint and
# `go run ./cmd/reprovet -list`. It first fails on any file gofmt would
# reformat.
GOFMT ?= gofmt
lint:
	@unformatted=$$($(GOFMT) -l .) && [ -z "$$unformatted" ] || { echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; }
	$(GO) run ./cmd/reprovet ./...
	$(GO) run ./cmd/reprovet -audit-ignores ./...

# lint-fast is the syntactic tier only: no type checking, sub-second,
# suited to editor save hooks and quick pre-commit loops.
lint-fast:
	$(GO) run ./cmd/reprovet -tier 1 ./...

test:
	$(GO) test ./...

# The race detector slows the experiment-reproduction tests ~10x, so the
# per-package timeout is raised above Go's 10m default.
race:
	$(GO) test -race -timeout 30m ./...

# chaos soaks the degradation ladder at full scale: seeded fault
# schedules × topologies under the race detector (see internal/chaos).
chaos:
	CHAOS_FULL=1 $(GO) test -race -count=1 -timeout 30m -v -run 'TestChaos' ./internal/chaos/

# chaos-smoke is the small-scale soak that gates `make check`.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/chaos/

# fuzz-smoke fuzzes the stage-2 compare kernel's bit-identity block skip
# against the per-element reference loop for 5 s. Part of `make check`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCompareSlices$$' -fuzztime 5s ./internal/errbound/

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke validates the benchmark runners end-to-end in milliseconds
# (tiny sizes, output discarded); part of `make check`.
bench-smoke:
	$(GO) run ./cmd/benchkernels -smoke > /dev/null
	$(GO) run ./cmd/benchstream -smoke > /dev/null
	$(GO) run ./cmd/benchgroup -smoke > /dev/null
	$(GO) run ./cmd/benchcapture -smoke > /dev/null
	$(GO) run ./cmd/benchshard -smoke > /dev/null

# reprod-smoke boots the comparison daemon on a loopback listener and
# drives the full HTTP lifecycle: run registration, compare/group/shard
# jobs to their verdicts, error mapping, and graceful SIGTERM drain.
# Part of `make check`.
reprod-smoke:
	$(GO) test -count=1 -run 'TestReprodSmoke' ./cmd/reprod/

# wal-smoke is the crash-durability gate: a real reprod process with
# -journal takes a job to its verdict, dies by SIGKILL, and the
# restarted process must serve that verdict from the hash-chained
# ledger, with reprocmp verify-log green over the surviving chain.
# Part of `make check`.
wal-smoke:
	$(GO) test -count=1 -run 'TestWALKillRestartSmoke' ./cmd/reprod/

# bench-json regenerates the tracked baselines at the repository root:
# kernel throughput (BENCH_kernels.json), the stage-2 streaming pipeline
# (BENCH_stream.json), the N-run group-comparison engine
# (BENCH_group.json), the differential-capture pipeline
# (BENCH_capture.json), and the subtree-sharded scale-out engine
# (BENCH_shard.json). Diff them in review to catch regressions
# (same-machine deltas are signal, cross-machine noise; the virtual and
# read-op columns are deterministic and comparable anywhere).
bench-json:
	$(GO) run ./cmd/benchkernels -o BENCH_kernels.json
	$(GO) run ./cmd/benchstream -o BENCH_stream.json
	$(GO) run ./cmd/benchgroup -o BENCH_group.json
	$(GO) run ./cmd/benchcapture -o BENCH_capture.json
	$(GO) run ./cmd/benchshard -o BENCH_shard.json

# bench-verify regenerates every deterministic baseline into a temp dir
# and diffs it against the tracked file with the wall-clock and toolchain
# fields dropped, so a change that moves any virtual or read-op column
# fails the gate. Each runner is pinned to the GOMAXPROCS its tracked
# file records: the tree-diff start level follows the executor's worker
# count, so virtual columns move with it. BENCH_kernels.json is all wall
# time and is not verified. Part of `make check`.
JQ ?= jq
BENCH_VERIFIED = stream group shard capture
BENCH_VOLATILE = walk(if type == "object" then del(.wall_ms, .generated_at, .go_version, .incremental_ms_per_capture, .full_rebuild_ms) else . end)
bench-verify:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for b in $(BENCH_VERIFIED); do \
		procs=$$($(JQ) .gomaxprocs BENCH_$$b.json) && \
		GOMAXPROCS=$$procs $(GO) run ./cmd/bench$$b -o $$tmp/BENCH_$$b.json > /dev/null && \
		$(JQ) -S '$(BENCH_VOLATILE)' BENCH_$$b.json > $$tmp/want.json && \
		$(JQ) -S '$(BENCH_VOLATILE)' $$tmp/BENCH_$$b.json > $$tmp/got.json && \
		diff -u $$tmp/want.json $$tmp/got.json || { echo "bench-verify: BENCH_$$b.json differs (GOMAXPROCS=$$procs)"; exit 1; }; \
		echo "bench-verify: BENCH_$$b.json ok (GOMAXPROCS=$$procs)"; \
	done

# Regenerate every paper table and figure (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ciregression
	$(GO) run ./examples/heatsolver
	$(GO) run ./examples/haccrepro
	$(GO) run ./examples/onlinecompare

clean:
	$(GO) clean ./...
