#!/bin/sh
# benchstat_gate.sh — regression gate for the host-pipeline micro-benchmarks.
#
# Compares a `go test -bench` output file against the committed baseline
# BENCH_host.json and fails on regressions beyond the baseline's tolerance
# (default 15%). Self-contained POSIX sh + awk: no benchstat binary or jq
# required, so the gate runs anywhere the repo builds.
#
# Usage:
#   go test -run '^$' -bench . -benchmem -benchtime=2000x -count=3 \
#       ./internal/core/ ./internal/backend/ ./internal/codeobj/ ./internal/metrics/ ./internal/sim/ \
#       ./internal/miopen/ ./internal/blas/ ./internal/graphx/ ./internal/trace/ | tee bench.txt
#   ./scripts/benchstat_gate.sh bench.txt              # gate against BENCH_host.json
#   ./scripts/benchstat_gate.sh -update bench.txt      # regenerate the baseline
#
# Gating rules (see docs/PERFORMANCE.md):
#   - allocs/op is gated unconditionally: allocation counts are
#     hardware-independent, so any increase beyond tolerance fails even on a
#     different machine.
#   - ns/op is gated only when the running host matches the baseline's
#     recorded host fingerprint; wall-clock time on foreign hardware is
#     noise, not signal. On matching hosts a regression must also exceed
#     an absolute 50ns floor: on the handful-of-ns fast paths a few ns of
#     scheduler jitter clears 15% without meaning anything, and the alloc
#     gate still catches any real change there (going interface-boxed or
#     allocating adds allocs before it adds 50ns).
#   - With -count=N the minimum across runs is compared, which discards
#     scheduler and amortized-growth noise.
set -u

baseline="BENCH_host.json"
update=0
if [ "${1:-}" = "-update" ]; then
    update=1
    shift
fi
if [ $# -lt 1 ]; then
    echo "usage: $0 [-update] bench.txt [baseline.json]" >&2
    exit 2
fi
bench="$1"
[ $# -ge 2 ] && baseline="$2"
if [ ! -f "$bench" ]; then
    echo "benchstat_gate: bench output $bench not found" >&2
    exit 2
fi

cpu=$(awk -F: '/model name/{sub(/^[ \t]+/, "", $2); print $2; exit}' /proc/cpuinfo 2>/dev/null)
[ -n "$cpu" ] || cpu="unknown"
host="$(go env GOOS)/$(go env GOARCH) $cpu"

# reduce: fold the bench output into "name min_ns min_allocs" lines, taking
# the minimum over -count repetitions and stripping the -GOMAXPROCS suffix.
reduce() {
    awk '
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            ns = ""; allocs = ""
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/op") ns = $i
                if ($(i+1) == "allocs/op") allocs = $i
            }
            if (ns == "" || allocs == "") next
            if (!(name in minns) || ns + 0 < minns[name]) minns[name] = ns + 0
            if (!(name in mina) || allocs + 0 < mina[name]) mina[name] = allocs + 0
            if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
        }
        END {
            for (i = 1; i <= n; i++) {
                name = order[i]
                printf "%s %g %g\n", name, minns[name], mina[name]
            }
        }
    ' "$1"
}

if [ "$update" -eq 1 ]; then
    reduce "$bench" | awk -v host="$host" '
        BEGIN {
            printf "{\n  \"schema\": 1,\n"
            printf "  \"host\": \"%s\",\n", host
            printf "  \"tolerance_pct\": 15,\n"
            printf "  \"benchmarks\": [\n"
        }
        {
            if (NR > 1) printf ",\n"
            printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", $1, $2, $3
        }
        END { printf "\n  ]\n}\n" }
    ' > "$baseline"
    n=$(reduce "$bench" | wc -l)
    echo "benchstat_gate: wrote $baseline ($n benchmarks, host: $host)"
    exit 0
fi

if [ ! -f "$baseline" ]; then
    echo "benchstat_gate: baseline $baseline not found (run with -update to create)" >&2
    exit 2
fi

base_host=$(sed -n 's/^ *"host": "\(.*\)",*$/\1/p' "$baseline" | head -n 1)
tol=$(sed -n 's/^ *"tolerance_pct": \([0-9.]*\),*$/\1/p' "$baseline" | head -n 1)
[ -n "$tol" ] || tol=15
gate_ns=1
if [ "$base_host" != "$host" ]; then
    gate_ns=0
    echo "benchstat_gate: host differs from baseline host — ns/op gate skipped, allocs/op still enforced"
    echo "  baseline: $base_host"
    echo "  current:  $host"
fi

reduce "$bench" > /tmp/benchgate.$$
trap 'rm -f /tmp/benchgate.$$' EXIT

# One baseline entry per line by construction of -update above.
sed -n 's/^ *{"name": "\([^"]*\)", "ns_per_op": \([0-9.e+-]*\), "allocs_per_op": \([0-9.e+-]*\)}.*$/\1 \2 \3/p' "$baseline" |
awk -v tol="$tol" -v gate_ns="$gate_ns" -v runfile="/tmp/benchgate.$$" '
    BEGIN {
        while ((getline line < runfile) > 0) {
            split(line, f, " ")
            runns[f[1]] = f[2] + 0
            runa[f[1]] = f[3] + 0
            inrun[f[1]] = 1
        }
        fail = 0
    }
    {
        name = $1; bns = $2 + 0; ba = $3 + 0
        if (!(name in inrun)) {
            printf "FAIL %s: benchmark missing from run output\n", name
            fail = 1
            next
        }
        limit_a = ba * (1 + tol / 100)
        if (runa[name] > limit_a) {
            printf "FAIL %s: allocs/op %g exceeds baseline %g by more than %g%%\n", name, runa[name], ba, tol
            fail = 1
        }
        if (gate_ns && runns[name] > bns * (1 + tol / 100) && runns[name] - bns > 50) {
            printf "FAIL %s: ns/op %g exceeds baseline %g by more than %g%%\n", name, runns[name], bns, tol
            fail = 1
        }
        checked++
    }
    END {
        if (fail) exit 1
        printf "benchstat_gate: %d benchmarks within %g%% of baseline (ns gate: %s)\n",
            checked, tol, gate_ns ? "on" : "off (foreign host)"
    }
'
