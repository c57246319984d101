#!/usr/bin/env bash
# Builds paskperf from this checkout's source and runs it with the given
# flags. Run it from the root of the checkout:
#
#   bash bench/run.sh --workload coldstart --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/paskperf" ./paskperf)
exec "$out/paskperf" "$@"
