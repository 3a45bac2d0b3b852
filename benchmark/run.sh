#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is the one entry point:
#
#   bash benchmark/run.sh --seed 1 [--out results.json]      all workloads, both passes
#   bash benchmark/run.sh --workload sig-topk --seed 1 --seconds 15 --trace 0
#
# The benchmark is a Go module of its own (benchmark/go.mod, module
# rankcube/benchmark, replacing rankcube with the checkout around it), so the
# repository's own build and tests neither see it nor depend on it. Two
# programs are built into .bench_build/ at the root of the checkout: the
# end-to-end runner, and the layer tracer it executes for --trace 1. They are
# built separately on purpose: the tracer is the only part that imports
# rankcube/internal/..., so when an internal refactor stops it building, the
# end-to-end pass still runs.
#
# Everything the build writes stays inside the checkout: the Go build cache is
# .bench_build/gocache, so the first run in a fresh checkout compiles the
# standard library too (about a minute); later runs rebuild nothing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

cd "$here"
go build -o "$out/benchmark" .

# The tracer is needed unless the end-to-end pass alone was asked for.
case " $* " in
  *"-trace 0 "* | *"-trace=0 "*) ;;
  *) go build -o "$out/layertrace" ./layertrace ;;
esac

exec "$out/benchmark" "$@"
