#!/usr/bin/env bash
# check_coverage.sh — per-package test-coverage floors.
#
# Runs `go test -coverprofile` across the module and fails if any listed
# package drops below its floor. Floors start a few points under the
# levels at the time a package lands, so new packages cannot land
# untested and existing ones cannot silently decay; ratchet a floor up
# when a package's coverage durably improves.
#
# Usage: scripts/check_coverage.sh [coverage-output-file]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-coverage.txt}"

# pkg (module-relative)  floor (percent)
floors="
photonrail 85
photonrail/cmd/opusctl 75
photonrail/cmd/opusim 25
photonrail/cmd/railclient 80
photonrail/cmd/raild 55
photonrail/cmd/raillint 28
photonrail/cmd/railfleet 60
photonrail/cmd/railgate 75
photonrail/internal/collective 90
photonrail/internal/cost 90
photonrail/internal/exp 90
photonrail/internal/faultnet 80
photonrail/internal/lint/allow 88
photonrail/internal/lint/analysis 90
photonrail/internal/lint/analysistest 78
photonrail/internal/lint/ctxbg 90
photonrail/internal/lint/driver 78
photonrail/internal/lint/goroutinejoin 88
photonrail/internal/lint/loader 80
photonrail/internal/lint/lockedblock 65
photonrail/internal/lint/maporder 82
photonrail/internal/lint/protoconsistency 84
photonrail/internal/metrics 90
photonrail/internal/model 80
photonrail/internal/netsim 87
photonrail/internal/ocs 90
photonrail/internal/opus 84
photonrail/internal/opusnet 82
photonrail/internal/parallelism 90
photonrail/internal/railctl 88
photonrail/internal/railfleet 80
photonrail/internal/railgate 88
photonrail/internal/railserve 80
photonrail/internal/report 95
photonrail/internal/resultstore 82
photonrail/internal/scenario 93
photonrail/internal/sim 88
photonrail/internal/telemetry 85
photonrail/internal/topo 90
photonrail/internal/trace 86
photonrail/internal/units 93
photonrail/internal/workload 90
"

go test -coverprofile=cover.out ./... | tee "$out"

fail=0
while read -r pkg floor; do
    [ -z "$pkg" ] && continue
    line="$(grep -E "^ok[[:space:]]+${pkg}[[:space:]]" "$out" || true)"
    if [ -z "$line" ]; then
        echo "FAIL: no coverage result for ${pkg} (package removed? update scripts/check_coverage.sh)" >&2
        fail=1
        continue
    fi
    pct="$(echo "$line" | grep -oE '[0-9]+\.[0-9]+% of statements' | grep -oE '^[0-9]+\.[0-9]+')"
    if [ -z "$pct" ]; then
        echo "FAIL: no coverage percentage for ${pkg} in: ${line}" >&2
        fail=1
        continue
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "FAIL: ${pkg} coverage ${pct}% below floor ${floor}%" >&2
        fail=1
    else
        echo "ok:   ${pkg} ${pct}% >= ${floor}%"
    fi
done <<EOF
$floors
EOF

# Every package must carry a floor, so a new untested package cannot
# land silently. Exceptions: examples (runnable docs) and
# internal/goldentest (test infrastructure, exercised by the cmd golden
# tests which Go does not count as its own coverage).
exempt="photonrail/internal/goldentest"
for pkg in $(go list ./... | grep -v '/examples/'); do
    case " $exempt " in *" $pkg "*) continue ;; esac
    if ! printf '%s\n' "$floors" | grep -qE "^${pkg} "; then
        echo "FAIL: package ${pkg} has no coverage floor (add one to scripts/check_coverage.sh)" >&2
        fail=1
    fi
done

exit "$fail"
