#!/usr/bin/env bash
# bench_snapshot.sh — record one point of the performance trajectory.
#
# Runs the module's short benchmarks (the same suite CI's perf gate,
# scripts/bench_diff.sh, runs) and writes a machine-readable snapshot to
# BENCH_<N>.json at the repo root, so successive PRs leave a comparable
# series (BENCH_5.json, BENCH_6.json, ...) instead of only transient CI
# artifacts. ns_per_op is the MIN wall time over three one-shot runs
# (-benchtime 1x -count 3): the min discards GC/scheduling flukes, so
# the series tracks trends and regressions at coarse grain without
# recording a noisy outlier as the trajectory. bytes_per_op /
# allocs_per_op (-benchmem) do not depend on the host's speed and are
# comparable at much finer grain; each is the MIN over the same three
# runs, the statistic scripts/bench_diff.sh gates allocs/op on. The
# snapshot names its host (nproc, the CPU model go test reports, and the
# GOMAXPROCS the benchmarks ran at), since ns_per_op is only comparable
# on a like host.
#
# Usage: scripts/bench_snapshot.sh [output.json]
# Default output: BENCH_<N+1>.json where N is the highest snapshot
# number present at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
    out="$1"
else
    # Derive the next snapshot number from the highest existing one.
    last="$(ls BENCH_*.json 2>/dev/null | sed -E 's/^BENCH_([0-9]+)\.json$/\1/' | sort -n | tail -1)"
    out="BENCH_$((${last:-0} + 1)).json"
fi
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -short -run '^$' -bench . -benchtime 1x -count 3 -benchmem ./... | tee "$raw"

goversion="$(go env GOVERSION)"
awk -v out="$out" -v goversion="$goversion" -v nproc="$(nproc)" '
    /^cpu: / && cpu == "" { cpu = substr($0, 6) }
    /^Benchmark/ && NF >= 4 && $4 == "ns/op" {
        name = $1
        # go test suffixes the GOMAXPROCS a benchmark ran at, unless 1.
        procs = match(name, /-[0-9]+$/) ? substr(name, RSTART + 1) : 1
        sub(/-[0-9]+$/, "", name)
        ns = $3 + 0
        if (!(name in min) || ns < min[name]) {
            min[name] = ns
            iters[name] = $2
        }
        if (NF >= 8 && $6 == "B/op" && $8 == "allocs/op") {
            if (!(name in bytes) || $5 + 0 < bytes[name]) bytes[name] = $5 + 0
            if (!(name in allocs) || $7 + 0 < allocs[name]) allocs[name] = $7 + 0
        }
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
    END {
        for (i = 1; i <= n; i++) {
            name = order[i]
            mem = ""
            if (name in allocs) mem = sprintf(", \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f", bytes[name], allocs[name])
            line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}", name, iters[name], min[name], mem)
            benches = benches sep line
            sep = ",\n"
        }
        gsub(/["\\]/, "", cpu)
        printf "{\n  \"go\": \"%s\",\n  \"host\": {\"nproc\": %d, \"cpu\": \"%s\", \"gomaxprocs\": %d},\n  \"benchtime\": \"1x -short (min of 3)\",\n  \"benchmarks\": [\n%s\n  ]\n}\n", goversion, nproc, cpu, procs, benches > out
    }
' "$raw"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"
