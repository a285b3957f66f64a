#!/usr/bin/env bash
# Builds the cpsrisk benchmark from source and runs it. Run from the
# repository root:
#
#   bash riskbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build and module caches, Go's
# telemetry counters) stays inside the checkout, under .bench_build/.
# The module needs nothing beyond the standard library and the parent
# module, so the build never goes to the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C riskbench build -o "$out/riskbench" . >&2
exec "$out/riskbench" "$@"
