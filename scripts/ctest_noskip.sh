#!/usr/bin/env bash
# Run ctest in a build tree and fail if any test failed or reported
# "Skipped". A skipped test has silently stopped gating, so it counts
# as a failure here. GTEST_SKIP is surfaced by the
# SKIP_REGULAR_EXPRESSION property every test target carries (the
# binary exits 0, so ctest would otherwise count it as Passed);
# DISABLED_ tests never run at all and are caught at the source level
# by tapas-lint rule R6.
#
#   scripts/ctest_noskip.sh <build-dir> [extra ctest args...]
#
# Runs `ctest --output-on-failure -j --no-tests=error` plus the extra
# arguments (for example `-R <regex>`) inside <build-dir>.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <build-dir> [extra ctest args...]" >&2
    exit 2
fi
build_dir="$1"
shift

log=$(mktemp)
trap 'rm -f "$log"' EXIT

status=0
(cd "$build_dir" && ctest --output-on-failure -j --no-tests=error "$@") \
    | tee "$log" || status=$?
if [[ $status -ne 0 ]]; then
    exit "$status"
fi
if grep -qE '\*\*\*Skipped|\(Skipped\)|[0-9]+ tests? skipped|\[  SKIPPED \]' \
    "$log"; then
    echo "FAIL: skipped tests detected in $build_dir" >&2
    exit 1
fi
