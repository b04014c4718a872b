#!/usr/bin/env bash
# bench_diff.sh — CI performance gate against the committed trajectory.
#
# Runs the short benchmarks fresh (-benchmem) and compares each against
# the latest committed BENCH_<N>.json snapshot by name, failing when
# ns/op or allocs/op regresses more than its threshold. To keep
# one-shot (-benchtime 1x) noise from tripping the gate:
#   - each fresh value is the MIN over -count runs (min is the robust
#     statistic for "has the code gotten slower", and it drops a first
#     run's one-time allocations);
#   - for ns/op, benchmarks faster than MIN_NS are skipped (sub-
#     millisecond one-shot timings are dominated by scheduling noise,
#     and a regression there is invisible in wall time), and the
#     threshold is generous (25%): this is a trajectory guard against
#     real regressions, not a microbenchmark tribunal;
#   - ns/op is corrected for the host's speed when both the baseline
#     and the fresh run timed BenchmarkHostSpeed, a fixed CPU and
#     memory kernel (bench/calibrate.go's): each fresh ns/op is
#     multiplied by (baseline kernel ns / fresh kernel ns)^SPEED_EXP
#     before the threshold test, SPEED_EXP being the 0.6 bench/README
#     fits for how strongly this stack's timings follow the kernel's.
#     The raw and corrected ratios print side by side, the kernel
#     itself is not gated on ns/op, and a baseline without the kernel
#     is gated on the raw ratio;
#   - allocs/op does not depend on the host's speed, so it is gated on
#     every benchmark whose baseline records it, sub-millisecond ones
#     included, at a tighter bound: ALLOCS_PCT (15%) of the baseline
#     plus ALLOCS_FLOOR (16) allocations of slack for tiny counts. Over
#     seven suite runs at GOMAXPROCS 1, 2 and 4 no benchmark's min
#     moved by more than 5 allocations (9%, on 55) or 0.3% (on 123k).
#
# Usage: scripts/bench_diff.sh [baseline.json]
# Default baseline: the highest-numbered BENCH_<N>.json at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD_PCT="${BENCH_DIFF_THRESHOLD_PCT:-25}"
MIN_NS="${BENCH_DIFF_MIN_NS:-1000000}" # skip benchmarks under 1ms
COUNT="${BENCH_DIFF_COUNT:-3}"
ALLOCS_PCT=15
ALLOCS_FLOOR=16
SPEED_BENCH=BenchmarkHostSpeed
SPEED_EXP=0.6

if [ $# -ge 1 ]; then
    baseline="$1"
else
    baseline="$(ls BENCH_*.json 2>/dev/null | sed -E 's/^BENCH_([0-9]+)\.json$/\1/' | sort -n | tail -1)"
    [ -n "$baseline" ] || { echo "bench_diff: no BENCH_<N>.json baseline found" >&2; exit 1; }
    baseline="BENCH_${baseline}.json"
fi
echo "bench_diff: baseline $baseline, threshold ${THRESHOLD_PCT}%, min ${MIN_NS} ns, allocs ${ALLOCS_PCT}% + ${ALLOCS_FLOOR}, count ${COUNT}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -short -run '^$' -bench . -benchtime 1x -count "$COUNT" -benchmem ./... | tee "$raw"

awk -v baseline="$baseline" -v thresh="$THRESHOLD_PCT" -v minns="$MIN_NS" \
    -v allocpct="$ALLOCS_PCT" -v allocfloor="$ALLOCS_FLOOR" \
    -v speedbench="$SPEED_BENCH" -v speedexp="$SPEED_EXP" '
    # Pass 1: committed baseline ns/op and allocs/op by benchmark name.
    FILENAME == baseline {
        if (match($0, /"name": "[^"]+"/)) {
            name = substr($0, RSTART + 9, RLENGTH - 10)
            if (match($0, /"ns_per_op": [0-9]+/)) {
                base[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
            }
            if (match($0, /"allocs_per_op": [0-9]+/)) {
                baseallocs[name] = substr($0, RSTART + 17, RLENGTH - 17) + 0
            }
        }
        next
    }
    # Pass 2: fresh runs; keep the min ns/op and min allocs/op per name.
    /^Benchmark/ && NF >= 4 && $4 == "ns/op" {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = $3 + 0
        if (!(name in fresh) || ns < fresh[name]) fresh[name] = ns
        if (NF >= 8 && $8 == "allocs/op") {
            allocs = $7 + 0
            if (!(name in freshallocs) || allocs < freshallocs[name]) freshallocs[name] = allocs
        }
    }
    END {
        fail = 0
        # Host-speed correction: how much slower (or faster) this host
        # ran the kernel than the baseline host did.
        corr = 1
        if ((speedbench in base) && (speedbench in fresh) && fresh[speedbench] > 0) {
            corr = (base[speedbench] / fresh[speedbench]) ^ speedexp
            printf "host: %-50s %12d -> %12d ns/op, ns/op corrected by x%.3f\n", speedbench, base[speedbench], fresh[speedbench], corr
        } else {
            printf "host: no %s in both runs, ns/op gated uncorrected\n", speedbench
        }
        for (name in fresh) {
            if (name == speedbench) continue
            if (!(name in base)) {
                printf "new:  %-50s %12d ns/op (no baseline)\n", name, fresh[name]
                continue
            }
            b = base[name]; f = fresh[name]
            if (b < minns && f < minns) {
                printf "skip: %-50s %12d -> %12d ns/op (tiny)\n", name, b, f
                continue
            }
            raw = (f - b) * 100.0 / b
            pct = (f * corr - b) * 100.0 / b
            if (pct > thresh) {
                printf "FAIL: %-50s %12d -> %12d ns/op (raw %+.1f%%, corrected %+.1f%% > %d%%)\n", name, b, f, raw, pct, thresh
                fail = 1
            } else {
                printf "ok:   %-50s %12d -> %12d ns/op (raw %+.1f%%, corrected %+.1f%%)\n", name, b, f, raw, pct
            }
        }
        for (name in freshallocs) {
            if (!(name in baseallocs)) continue
            b = baseallocs[name]; f = freshallocs[name]
            limit = b * (1 + allocpct / 100.0) + allocfloor
            if (f > limit) {
                printf "FAIL: %-50s %12d -> %12d allocs/op (over %d%% + %d)\n", name, b, f, allocpct, allocfloor
                fail = 1
            } else {
                printf "ok:   %-50s %12d -> %12d allocs/op\n", name, b, f
            }
        }
        for (name in base) {
            if (!(name in fresh)) {
                printf "FAIL: %-50s gone (present in %s, not in fresh run)\n", name, baseline
                fail = 1
            }
        }
        exit fail
    }
' "$baseline" "$raw"
