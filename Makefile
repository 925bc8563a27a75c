# Developer entry points. `make ci` is what a pipeline should run.

GO ?= go

.PHONY: all build test bench-unit vet race race-fault race-io race-attr race-parallel race-cedard smoke-cedard bench bench-engine bench-telemetry fuzz-equivalence fault-soak cover ci

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

# Naive vs quiescent vs wake-cached vs parallel engine on the
# DOALL-startup-heavy workload, plus the cluster-parallel benchmark
# (compute-dominated, 4- and 16-cluster); the ns/op ratios are the fast
# paths' wall-clock wins (results are bit-identical across every
# sub-benchmark). All min-of-3 ns/op values land in BENCH_engine.json
# for pipelines to diff. Gates: wake-cached ns/op must not regress more
# than 10% versus the committed baseline (skipped when none exists),
# and on hosts with 2+ CPUs parallel-4cl must beat wake-cached-4cl by
# at least 1.8x (on a single CPU the pool never forks, so the speedup
# is unmeasurable and the gate is skipped — the rows are still
# emitted).
bench-engine:
	@base=$$(sed -n 's/.*"wake-cached_ns_per_op": *\([0-9]*\).*/\1/p' BENCH_engine.json 2>/dev/null); \
	$(GO) test -run NONE -bench 'BenchmarkEngineQuiescence|BenchmarkEngineParallel' -benchtime 10x -count 3 . | tee bench-engine.out && \
	awk 'BEGIN { n = 0 } \
	  $$1 ~ /^BenchmarkEngine(Quiescence|Parallel)\// { \
	    split($$1, a, "/"); sub(/-[0-9]+$$/, "", a[2]); \
	    if (a[2] in idx) { i = idx[a[2]]; if ($$3 + 0 < ns[i] + 0) ns[i] = $$3 } \
	    else { idx[a[2]] = n; name[n] = a[2]; ns[n] = $$3; n++ } } \
	  END { \
	    if (n == 0) { print "bench-engine: no benchmark lines parsed" > "/dev/stderr"; exit 1 } \
	    print "{"; \
	    for (i = 0; i < n; i++) \
	      printf "  \"%s_ns_per_op\": %s%s\n", name[i], ns[i], (i < n-1 ? "," : ""); \
	    print "}" }' bench-engine.out > BENCH_engine.json && \
	rm -f bench-engine.out && \
	cat BENCH_engine.json && \
	new=$$(sed -n 's/.*"wake-cached_ns_per_op": *\([0-9]*\).*/\1/p' BENCH_engine.json); \
	if [ -n "$$base" ] && [ -n "$$new" ] && [ "$$new" -gt $$(( base + base / 10 )) ]; then \
	  echo "bench-engine: wake-cached $$new ns/op regressed >10% vs committed baseline $$base ns/op" >&2; \
	  exit 1; \
	elif [ -n "$$base" ]; then \
	  echo "bench-engine: wake-cached $$new ns/op within 10% of baseline $$base ns/op"; \
	fi; \
	wc4=$$(sed -n 's/.*"wake-cached-4cl_ns_per_op": *\([0-9]*\).*/\1/p' BENCH_engine.json); \
	par4=$$(sed -n 's/.*"parallel-4cl_ns_per_op": *\([0-9]*\).*/\1/p' BENCH_engine.json); \
	ncpu=$$(nproc 2>/dev/null || echo 1); \
	if [ "$$ncpu" -lt 2 ]; then \
	  echo "bench-engine: single-CPU host, parallel >=1.8x gate skipped (parallel-4cl $$par4 ns/op vs wake-cached-4cl $$wc4 ns/op measures bookkeeping only)"; \
	elif [ -n "$$wc4" ] && [ -n "$$par4" ] && [ $$(( par4 * 18 )) -gt $$(( wc4 * 10 )) ]; then \
	  echo "bench-engine: parallel-4cl $$par4 ns/op is not >=1.8x faster than wake-cached-4cl $$wc4 ns/op" >&2; \
	  exit 1; \
	else \
	  echo "bench-engine: parallel-4cl $$par4 ns/op vs wake-cached-4cl $$wc4 ns/op (>=1.8x gate passed)"; \
	fi

# Replays the seeded randomized stimulus schedule (the seed is pinned in
# fuzz_test.go, so every run sees the same stimuli) on all three engine
# paths at 1/2/4-cluster scale and diffs fingerprints and trace bytes —
# once fault-free and once with the seeded fault injector interleaving
# network stalls/drops, memory busy/degrade windows and CE check-stops
# into the same schedule.
fuzz-equivalence:
	$(GO) test ./internal/kernels/ -run 'TestFuzzScheduleEngineEquivalence|TestFuzzScheduleFaultEngineEquivalence' -v

# Race pass focused on the fault-injection surfaces (injector, engine,
# networks): the layers the fault PR touches most, plus the CE
# inflight-reissue path raced under the parallel engine with the worker
# pool forced on (the chaos soak's parallel-reissue case).
race-fault:
	$(GO) test -race ./internal/fault/ ./internal/sim/ ./internal/network/
	$(GO) test -race -run TestChaosSoakParallelReissue ./internal/kernels/

# Chaos soak: seeded sweep of (fault-kind subsets x registry workloads
# x all four engine modes) asserting completion, cross-mode fingerprint
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
# counters. Min-of-3 ns/op for both land in BENCH_telemetry.json, and
# the target fails if "on" regresses more than 10% versus the committed
# baseline (skipped when no baseline exists yet).
bench-telemetry:
	@base=$$(sed -n 's/.*"on_ns_per_op": *\([0-9]*\).*/\1/p' BENCH_telemetry.json 2>/dev/null); \
	$(GO) test -run NONE -bench BenchmarkTelemetryOverhead -benchtime 10x -count 3 . | tee bench-telemetry.out && \
	awk 'BEGIN { n = 0 } \
	  $$1 ~ /^BenchmarkTelemetryOverhead\// { \
	    split($$1, a, "/"); sub(/-[0-9]+$$/, "", a[2]); \
	    if (a[2] in idx) { i = idx[a[2]]; if ($$3 + 0 < ns[i] + 0) ns[i] = $$3 } \
	    else { idx[a[2]] = n; name[n] = a[2]; ns[n] = $$3; n++ } } \
	  END { \
	    if (n == 0) { print "bench-telemetry: no benchmark lines parsed" > "/dev/stderr"; exit 1 } \
	    print "{"; \
	    for (i = 0; i < n; i++) \
	      printf "  \"%s_ns_per_op\": %s%s\n", name[i], ns[i], (i < n-1 ? "," : ""); \
	    print "}" }' bench-telemetry.out > BENCH_telemetry.json && \
	rm -f bench-telemetry.out && \
	cat BENCH_telemetry.json && \
	new=$$(sed -n 's/.*"on_ns_per_op": *\([0-9]*\).*/\1/p' BENCH_telemetry.json); \
	if [ -n "$$base" ] && [ -n "$$new" ] && [ "$$new" -gt $$(( base + base / 10 )) ]; then \
	  echo "bench-telemetry: sampling-on $$new ns/op regressed >10% vs committed baseline $$base ns/op" >&2; \
	  exit 1; \
	elif [ -n "$$base" ]; then \
	  echo "bench-telemetry: sampling-on $$new ns/op within 10% of baseline $$base ns/op"; \
	fi

# Race pass focused on the cluster-parallel engine: the sim package's
# fork/join, worker-pool and async-wake surfaces (the pool tests force
# GOMAXPROCS up so the goroutines really interleave even on one CPU),
# plus the kernel determinism suites that drive ModeWakeCachedParallel
# through the full machine. TriMatVec runs two clusters with prefetch on
# and off, so it races both kinds of packet free list (CE and PFU) across
# two cluster domains: phase-2 Sends against phase-3 Puts.
race-parallel:
	$(GO) test -race -count=2 -run 'TestPar|TestWakeAsync|TestConfigure' ./internal/sim/
	$(GO) test -race -run 'TestDeterminismVectorLoad|TestDeterminismCG|TestDeterminismTriMatVec' ./internal/kernels/

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

ci: vet test bench-unit race race-fault race-io race-attr race-parallel race-cedard smoke-cedard fuzz-equivalence fault-soak bench-engine bench-telemetry
