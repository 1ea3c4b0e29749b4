#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. From the repository
# root:
#
#   bash perfbench/run.sh --workload dense4 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the trace files go under .bench_build/,
# so the build writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
