#!/usr/bin/env bash
# The benchmark's single entry point: build the harness once, then run it.
#
#   benchmark/run.sh [-seed N] [-workload W] [-scale full|tiny] [-out FILE]
#
# runs every workload (or W) timed and then traced, prints every metric by
# name with its unit, and ends with both runs merged into one JSON object on
# the last line of stdout (also written to FILE). Every other flag of
# `go run ./benchmark` passes through, -selfcheck and -trace included. The
# cpu_share.* figures come from a pprof decoder inside the harness, so no
# `go tool pprof` and no module beyond the standard library is involved.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=.bench_build/spin-benchmark
go build -o "$bin" ./benchmark
exec "$bin" "$@"
