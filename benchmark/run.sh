#!/usr/bin/env bash
# Builds the fleet-diagnosis benchmark from source and runs it. Run it
# from the repository root with the benchmark's own flags, e.g.
#
#   bash benchmark/run.sh --workload fleet-hetero --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files
# (disk spools, spans) all stay under $CARGO_TARGET_DIR, default
# .bench_build, so a run writes nothing outside the checkout. The build
# is offline: the benchmark module needs only the repository's own
# module, which it replaces with the checkout root.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C benchmark build -o "$out/fleetbench" .
exec "$out/fleetbench" -out "$out" "$@"
