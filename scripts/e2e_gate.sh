#!/bin/sh
# e2e_gate.sh — allocation gate for the end-to-end benchmark.
#
# Compares the alloc_kb_per_op of one bench/run.sh result line against the
# committed baseline BENCH_e2e.json and fails when it rises by more than the
# baseline's tolerance (0.15, i.e. 15%, the bound BENCHMARK.json sets for the
# metric). For a fixed seed and toolchain the allocation per operation is a
# count, not a timing: seeds 1-3 differ by under 0.1% on sweep and coldstart
# and by 1.2% on fleet, so unlike ns/op it is gated on any machine. http is
# the exception: it runs open loop against the wall clock, so the requests
# that fit in one second vary and so does the allocation per request. Nine
# seed-1 runs on a 2-core Xeon spread from 391 to 441 kB (median 400, the
# baseline; the worst run is 10% above it), inside the 15% tolerance.
# Self-contained POSIX sh + sed + awk.
#
# Usage:
#   bash bench/run.sh --workload sweep --seed 1 --seconds 1 --trace 0 | tail -n 1 > e2e_sweep.json
#   ./scripts/e2e_gate.sh sweep e2e_sweep.json
#
# After a deliberate change in allocation, edit the workload's line in
# BENCH_e2e.json to the value the command above prints, in the same change.
set -u

baseline="BENCH_e2e.json"
if [ $# -ne 2 ]; then
    echo "usage: $0 workload result.json" >&2
    exit 2
fi
wl="$1"
res="$2"

got=$(sed -n 's/.*"alloc_kb_per_op":{"value":\([0-9.eE+-]*\).*/\1/p' "$res" | tail -n 1)
want=$(sed -n "s/^ *{\"workload\": \"$wl\", \"alloc_kb_per_op\": \([0-9.eE+-]*\)}.*/\1/p" "$baseline")
tol=$(sed -n 's/^ *"tolerance": \([0-9.]*\),*$/\1/p' "$baseline")
if [ -z "$got" ]; then
    echo "e2e_gate: no alloc_kb_per_op in $res" >&2
    exit 2
fi
if [ -z "$want" ] || [ -z "$tol" ]; then
    echo "e2e_gate: no $wl baseline or tolerance in $baseline" >&2
    exit 2
fi

awk -v wl="$wl" -v got="$got" -v want="$want" -v tol="$tol" 'BEGIN {
    if (got + 0 > (want + 0) * (1 + tol)) {
        printf "FAIL %s: alloc_kb_per_op %g exceeds baseline %g by more than %g%%\n", wl, got, want, 100 * tol
        exit 1
    }
    printf "e2e_gate: %s alloc_kb_per_op %g within %g%% of baseline %g\n", wl, got, 100 * tol, want
}'
