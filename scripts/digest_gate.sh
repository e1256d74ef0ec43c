#!/usr/bin/env bash
# Behaviour gate: run each gated benchmark workload briefly through
# perfbench/run.py and fail unless every run reproduces its reference
# digest (perfbench/reference.json) with no failed operation. This
# only reads the runner's report; the runner builds into
# $CARGO_TARGET_DIR (default .bench_build/).
#
#   scripts/digest_gate.sh [seed]      # default seed 7
set -euo pipefail

cd "$(dirname "$0")/.."

seed="${1:-7}"
status=0
for workload in fleet_week oversub_place recovery_drill; do
    report=$(python3 perfbench/run.py --workload "$workload" \
        --seed "$seed" --seconds 1 --trace 0)
    digest_line=$(grep -E '^digest ' <<<"$report" || true)
    failed_line=$(grep -E '^failed_frac ' <<<"$report" || true)
    echo "$workload: $digest_line; $failed_line"
    if ! grep -qE '^digest [0-9a-f]+ identical ' <<<"$digest_line" ||
        ! grep -qE '^failed_frac 0 ' <<<"$failed_line"; then
        echo "FAIL: $workload seed $seed does not reproduce its" \
             "reference digest with failed_frac 0" >&2
        status=1
    fi
done
exit "$status"
