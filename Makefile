# Developer entry points. `make ci` is what a pipeline should run.

GO ?= go

.PHONY: all build test bench-unit vet race bench-engine bench-telemetry cover ci

all: ci

build:
	$(GO) build ./...

# go vet, and gofmt: a file gofmt would rewrite fails the leg. bench/ is
# a Go module of its own, which `go vet ./...` never reaches, so it is
# vetted separately: it builds against this module's exported names.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l: not formatted:" >&2; echo "$$unformatted" >&2; exit 1; fi

test:
	$(GO) test ./...

# The benchmark under bench/ is a Go module of its own, so `go test ./...`
# above never reaches it: run its unit tests (population, statistics and
# golden checks; -short skips the smoke test that builds and runs the
# binaries).
bench-unit:
	cd bench && $(GO) test -short ./...

# Race-detect the packages that start goroutines (cedard's batch
# fan-out, the job service) or hold state shared across machines (the
# telemetry registry layouts that machines of one shape share); a
# package that gains either belongs on this list. Every other package
# runs one machine on one goroutine, where -race checks nothing `test`
# does not. runner's TestConcurrentMachines runs every registry
# workload, and the scaled topology, on several machines at once, so
# state a kernel keeps at package level is reported here as a data
# race, and each of its machines fingerprints a registry bound to a
# shared layout; telemetry's TestShapedConcurrent builds and
# fingerprints registries of several shapes from eight goroutines.
# internal/tables starts goroutines only to call job.Service, which
# this leg races, on Specs that TestConcurrentMachines covers.
race:
	$(GO) test -race ./cmd/cedard/ ./internal/job/... ./internal/telemetry/

# Naive vs wake-cached engine on the DOALL-startup-heavy workload, plus
# the compute-dominated wake-cached rows at 4 and 16 clusters; the
# naive/wake-cached ns/op ratio is the fast path's wall-clock win
# (results are bit-identical across every sub-benchmark). Gate:
# wake-cached ns/op must not regress more than 10% versus the committed
# BENCH_engine.json (see the shared recipe below).
bench-engine:
	$(call bench-gate,BenchmarkEngineQuiescence|BenchmarkEngineCompute,wake-cached,BENCH_engine.json)

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

# Statement-coverage floors. The telemetry layer's correctness story is
# "every sample is bit-exact"; the omega network's per-switch bookkeeping
# (occupancy bits, head digits, idle switches) must stay exercised on the
# drop-fault paths too. A failing test fails the leg whatever the
# coverage.
cover:
	@floor=85; \
	for pkg in ./internal/telemetry ./internal/network; do \
	out=$$($(GO) test -cover $$pkg) || { echo "$$out" >&2; exit 1; }; \
	pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "$$pkg statement coverage: $$pct% (floor $$floor%)"; \
	awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p+0 >= f) ? 0 : 1 }' || \
	{ echo "$$pkg coverage below floor" >&2; exit 1; }; \
	done

# Each leg checks something no other leg does. `test` runs the cedard
# smoke test, the seeded engine-equivalence replays and the chaos soak;
# run one alone with `go test -run TestSmoke -v ./cmd/cedard/`,
# `go test -run 'TestFuzzSchedule(Fault)?EngineEquivalence' -v
# ./internal/kernels/` or `go test -run TestChaosSoak ./internal/kernels/`.
ci: vet test bench-unit race cover bench-engine bench-telemetry
