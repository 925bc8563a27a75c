# Developer entry points. `make ci` is what a pipeline should run.

GO ?= go

.PHONY: all build test bench-unit vet race race-fault race-io race-attr race-cedard smoke-cedard bench bench-engine bench-telemetry fuzz-equivalence fault-soak cover ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark under bench/ is a Go module of its own, so `go test ./...`
# above never reaches it: run its unit tests (population, statistics and
# golden checks; -short skips the smoke test that builds and runs the
# binaries).
bench-unit:
	cd bench && $(GO) test -short ./...

# The simulator is single-goroutine per machine, but tests run machines
# concurrently; -race guards the harness and any future parallelism.
race:
	$(GO) test -race ./...

# Every table/figure of the paper, printed once each.
bench:
	$(GO) test -bench . -benchtime 1x .

# Naive vs wake-cached engine on the DOALL-startup-heavy workload, plus
# the compute-dominated wake-cached rows at 4 and 16 clusters; the
# naive/wake-cached ns/op ratio is the fast path's wall-clock win
# (results are bit-identical across every sub-benchmark). Gate:
# wake-cached ns/op must not regress more than 10% versus the committed
# BENCH_engine.json (see the shared recipe below).
bench-engine:
	$(call bench-gate,BenchmarkEngineQuiescence|BenchmarkEngineCompute,wake-cached,BENCH_engine.json)

# Replays the seeded randomized stimulus schedule (the seed is pinned in
# fuzz_test.go, so every run sees the same stimuli) on both engine
# paths at 1/2/4-cluster scale and diffs fingerprints and trace bytes —
# once fault-free and once with the seeded fault injector interleaving
# network stalls/drops, memory busy/degrade windows and CE check-stops
# into the same schedule.
fuzz-equivalence:
	$(GO) test ./internal/kernels/ -run 'TestFuzzScheduleEngineEquivalence|TestFuzzScheduleFaultEngineEquivalence' -v

# Race pass focused on the fault-injection surfaces (injector, engine,
# networks).
race-fault:
	$(GO) test -race ./internal/fault/ ./internal/sim/ ./internal/network/

# Chaos soak: seeded sweep of (fault-kind subsets x registry workloads
# x both engine modes) asserting completion, cross-mode fingerprint
# equality and a balanced fault census — the standing system-wide fault
# invariant. The vacuity guard keeps the new cluster-internal kinds
# actually firing.
fault-soak:
	$(GO) test -run 'TestChaosSoak' -count=1 ./internal/kernels/

# Race pass focused on the I/O path (TestIO* across the packages the
# isa.IO -> CE -> IP -> xylem park/redispatch chain crosses).
race-io:
	$(GO) test -race -run IO ./internal/kernels/ ./internal/cluster/ ./internal/xylem/ ./internal/cedarfort/

# Telemetry disabled vs enabled on the engine benchmark workload: "off"
# must stay within noise of the pre-telemetry engine (the registry is
# never built); "on" carries the sampling plus the cycle-attribution
# counters. Gate: "on" must not regress more than 10% versus the
# committed BENCH_telemetry.json (see the shared recipe below).
bench-telemetry:
	$(call bench-gate,BenchmarkTelemetryOverhead,on,BENCH_telemetry.json)

# The shared bench-gate recipe, $(call bench-gate,<benchmarks>,<gated
# row>,<baseline>): run the benchmarks three times, write each row's
# min-of-3 ns/op to $@.json (git-ignored; the committed baseline is never
# rewritten), and fail when the gated row's ns/op exceeds the baseline's
# by more than 10% (skipped without a baseline).
define bench-gate
@$(GO) test -run NONE -bench '$(1)' -benchtime 10x -count 3 . | tee $@.out && \
awk 'BEGIN { n = 0 } \
  $$1 ~ /^Benchmark[^\/]*\// { \
    split($$1, a, "/"); sub(/-[0-9]+$$/, "", a[2]); \
    if (a[2] in idx) { i = idx[a[2]]; if ($$3 + 0 < ns[i] + 0) ns[i] = $$3 } \
    else { idx[a[2]] = n; name[n] = a[2]; ns[n] = $$3; n++ } } \
  END { \
    if (n == 0) { print "no benchmark lines parsed" > "/dev/stderr"; exit 1 } \
    print "{"; \
    for (i = 0; i < n; i++) \
      printf "  \"%s_ns_per_op\": %s%s\n", name[i], ns[i], (i < n-1 ? "," : ""); \
    print "}" }' $@.out > $@.json && \
rm -f $@.out && \
cat $@.json && \
base=$$(sed -n 's/.*"$(2)_ns_per_op": *\([0-9]*\).*/\1/p' $(3) 2>/dev/null); \
new=$$(sed -n 's/.*"$(2)_ns_per_op": *\([0-9]*\).*/\1/p' $@.json); \
if [ -n "$$base" ] && [ -n "$$new" ] && [ "$$new" -gt $$(( base + base / 10 )) ]; then \
  echo "$@: $(2) $$new ns/op regressed >10% vs committed $(3) $$base ns/op" >&2; \
  exit 1; \
elif [ -n "$$base" ]; then \
  echo "$@: $(2) $$new ns/op within 10% of committed $(3) $$base ns/op"; \
fi
endef

# Race pass focused on the cycle-attribution surfaces: the accounting
# invariant sweeps, the stack/flame/CSV views and the sampler's phase
# stamping.
race-attr:
	$(GO) test -race -run 'Attr|Acct|CPIStack|MachineFlame|IntervalPhase' ./internal/kernels/ ./internal/ce/ ./internal/telemetry/

# Race pass focused on the job layer: the sharded result cache's
# singleflight dedupe and bounded worker pool (K concurrent identical
# requests must execute exactly one simulation), plus the cedard
# handler fanning a batch out across goroutines.
race-cedard:
	$(GO) test -race -count=2 ./internal/job/... ./cmd/cedard/

# End-to-end cedard smoke: build the real binary, start it, POST a job
# batch twice, and assert the second round is served entirely from the
# result cache.
smoke-cedard:
	$(GO) test -run TestSmoke -count=1 -v ./cmd/cedard/

# Coverage with a floor on the telemetry layer (its correctness story is
# "every sample is bit-exact", so the package must stay well covered).
TELEMETRY_COVER_FLOOR ?= 85
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@pct=$$($(GO) test -cover ./internal/telemetry | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/telemetry statement coverage: $$pct% (floor $(TELEMETRY_COVER_FLOOR)%)"; \
	awk -v p="$$pct" -v f="$(TELEMETRY_COVER_FLOOR)" 'BEGIN { exit (p+0 >= f) ? 0 : 1 }' || \
	{ echo "telemetry coverage below floor"; exit 1; }

ci: vet test bench-unit race race-fault race-io race-attr race-cedard smoke-cedard fuzz-equivalence fault-soak bench-engine bench-telemetry
