#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given flags, from the
# repository root:
#
#   bash cmd/bench/run.sh --workload select-catalog --seed 1 --seconds 20 --trace 0
#
# The build cache, the module cache, build scratch and the binary live under
# .bench_build in the current directory, so the run reads and writes
# nothing outside it, and never reaches the network for a toolchain or a
# module.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOMAXPROCS=2
(cd cmd/bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
