#!/usr/bin/env bash
# Builds meblbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash benchmark/run.sh --workload eco-patch --seed 3 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# spans of a traced run stay in .bench_build/ at the root.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C benchmark build -o "$out/meblbench" .
exec "$out/meblbench" -spans "$out/spans.json" "$@"
