#!/usr/bin/env bash
# Behaviour gate: run each benchmark workload briefly through
# perfbench/run.py and fail unless every run reproduces its reference
# digest (perfbench/reference.json) with no failed operation. This
# only reads the runner's report; the runner builds into
# $CARGO_TARGET_DIR (default .bench_build/). cluster_requests is not
# a timing-gated workload, but its digest is a behaviour check like
# the others.
#
#   scripts/digest_gate.sh          # seeds 7 and 1009 (held out)
#   scripts/digest_gate.sh <seed>   # one seed
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
    seeds=("$1")
else
    seeds=(7 1009)
fi
status=0
for seed in "${seeds[@]}"; do
    for workload in fleet_week oversub_place recovery_drill \
        cluster_requests; do
        report=$(python3 perfbench/run.py --workload "$workload" \
            --seed "$seed" --seconds 1 --trace 0)
        digest_line=$(grep -E '^digest ' <<<"$report" || true)
        failed_line=$(grep -E '^failed_frac ' <<<"$report" || true)
        echo "$workload seed $seed: $digest_line; $failed_line"
        if ! grep -qE '^digest [0-9a-f]+ identical ' <<<"$digest_line" ||
            ! grep -qE '^failed_frac 0 ' <<<"$failed_line"; then
            echo "FAIL: $workload seed $seed does not reproduce its" \
                 "reference digest with failed_frac 0" >&2
            status=1
        fi
    done
done
exit "$status"
