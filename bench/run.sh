#!/usr/bin/env bash
# Builds the benchmark and cmd/cedard from the checkout this is run in
# (run it from the checkout root), then runs the benchmark with the
# given flags, e.g.
#
#   bash bench/run.sh --workload net-bound --seed 1 --seconds 25 --trace 0
#
# Everything the build writes goes under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR"
go -C bench build -o "$out/bench" .
go build -o "$out/cedard" ./cmd/cedard
exec "$out/bench" -cedard "$out/cedard" -trace-dir "$out/traces" "$@"
