#!/usr/bin/env bash
# Local pre-PR gate: tapas-lint, the tier-1 verify line plus the
# step-loop bench perf gate in Release, a Debug pass that actually
# executes the membership/predictor cross-check asserts,
# sanitizer legs, and (when clang++ is available) the compile-time
# thread-safety analysis. Run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

# ctest reporting "Skipped" means a registered test silently stopped
# gating; fail loudly instead of letting coverage decay. GTEST_SKIP
# is surfaced by the SKIP_REGULAR_EXPRESSION property every test
# target carries (the binary exits 0, so ctest would otherwise count
# it as Passed); DISABLED_ tests never run at all, so they are
# caught at the source level by tapas-lint rule R6.
fail_on_skipped() {
    local log="$1"
    if grep -qE '\*\*\*Skipped|\(Skipped\)|[0-9]+ tests? skipped|\[  SKIPPED \]' \
        "$log"; then
        echo "FAIL: skipped tests detected in $log" >&2
        exit 1
    fi
}

echo "== tapas-lint =="
# The repo-specific static-analysis gate (scripts/tapas_lint.py):
# deprecated scalar model calls, determinism, hot-region allocations,
# console I/O, header guards, disabled/skipped tests, and raw
# std::mutex use are all machine-checked here. The old DISABLED_ grep
# lives on as rule R6. Rules and escapes: scripts/README.md.
python3 scripts/tapas_lint.py

echo "== tapas-analyze (A1 checkpoint coverage, A2 layering) =="
# The semantic passes (scripts/tapas_analyze.py): every member of a
# checkpointState class archived or ckpt-skip-exempted, and the
# src/ include graph inside the layer DAG. Each pass prints its
# runtime in the summary line. A3 runs after the Release build below.
python3 scripts/tapas_analyze.py

echo "== configure (Release) =="
cmake -B build -S .

echo "== build (Release) =="
cmake --build build -j

echo "== tapas-analyze A3 (binary hot-path verification) =="
# Post-build pass over the Release objects: no operator new/delete,
# __cxa_throw, malloc, or pthread_mutex_lock reachable from
# tapas-hot region code — the inlining blind spot lint R3 cannot
# see. Needs the full-`-g` Release objects built above.
python3 scripts/tapas_analyze.py --pass a3 --objdir build

echo "== tier-1 tests (Release) =="
release_log=$(mktemp)
(cd build && ctest --output-on-failure -j --no-tests=error) \
    | tee "$release_log"
fail_on_skipped "$release_log"

echo "== step-loop bench + perf gate (Release) =="
# Full mode (the loop is fast enough); emit the JSON into build/ so
# the repo root stays clean, and gate >20% steps/s regressions
# against the committed baseline.
(cd build && ./bench_step_loop --check ../BENCH_step_loop.json)

echo "== fault drill gate + fig20 quick grid (Release) =="
# The drill's TAPAS arm (sensor quarantine armed, profiles refit
# every 6 h) must spend strictly fewer steps in inlet excursion than
# the baseline; the fig20 --quick column drives the ablation grid
# through ScenarioSweep end to end. Together under 1 s.
(cd build && ./bench_fault_drill --check && \
    ./bench_fig20_ablation --quick)

echo "== kill-9 crash-recovery drill (Release) =="
# SIGKILL mid-run, resume from the surviving snapshot, byte-compare
# the resumed report against a straight-through reference, and
# assert a deliberately corrupted snapshot is rejected with a
# structured error (scripts/crash_drill.sh).
scripts/crash_drill.sh build

echo "== benchmark digest gate (Release) =="
# Every perfbench workload (fleet_week, oversub_place,
# recovery_drill, cluster_requests), at seed 7 and held-out seed
# 1009, must print `digest ... identical` against
# perfbench/reference.json with failed_frac 0: behaviour-preserving
# changes stay bit-identical (scripts/digest_gate.sh).
scripts/digest_gate.sh

echo "== configure (Debug) =="
cmake -B build-dbg -S . -DCMAKE_BUILD_TYPE=Debug

echo "== build (Debug) =="
cmake --build build-dbg -j

echo "== tier-1 tests (Debug, asserts on) =="
debug_log=$(mktemp)
(cd build-dbg && ctest --output-on-failure -j --no-tests=error) \
    | tee "$debug_log"
fail_on_skipped "$debug_log"

echo "== step-loop bench under Debug asserts =="
# Smoke mode with --check: in a Debug build the binary skips the
# (meaningless) steps/s comparison but drives the full step loop, so
# the per-step SoA-table, routing-index and rejection-memo
# cross-check asserts actually execute pre-PR.
(cd build-dbg && ./bench_step_loop --smoke --check \
    ../BENCH_step_loop.json)

echo "== configure (ASan+UBSan) =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DTAPAS_SANITIZE=ON

echo "== build (ASan+UBSan) =="
cmake --build build-asan -j

echo "== tier-1 tests (ASan+UBSan) =="
# The batched passes hand caller-owned output spans and raw pointer
# lanes through the hot loops; this leg catches out-of-bounds lane
# writes, stale scratch aliasing, and UB in the branch-free solves
# that Release codegen can silently absorb.
asan_log=$(mktemp)
(cd build-asan && ctest --output-on-failure -j --no-tests=error) \
    | tee "$asan_log"
fail_on_skipped "$asan_log"

echo "== configure (TSan) =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DTAPAS_SANITIZE=thread

echo "== build (TSan) =="
cmake --build build-tsan -j

echo "== threadpool/sweep + fault suites (TSan) =="
# The suites that actually fan work across the shared thread pool:
# the parallel scenario sweeps (property suite), the fault-engine
# and failure-manager suites (fault drills construct simulators on
# worker threads), and the fault-drill integration test. A full
# ctest pass under TSan is several times slower for no extra
# concurrency coverage — everything else is single-threaded.
tsan_log=$(mktemp)
(cd build-tsan && ctest --output-on-failure -j --no-tests=error \
    -R 'property_test_sweeps|test_failure|test_faults|fault_drill|test_perf_contention') \
    | tee "$tsan_log"
fail_on_skipped "$tsan_log"

echo "== clang thread-safety analysis =="
# Compile-time lock discipline: the TAPAS_GUARDED_BY/TAPAS_REQUIRES
# annotations (src/common/thread_annotations.hh) are checked by
# clang's -Wthread-safety, promoted to errors. The attributes are
# no-ops under GCC, so this leg needs a clang++ on PATH; containers
# without one skip it (CI always runs it). Tests are skipped in this
# build: the analysis is purely compile-time over the library, and
# clang-only containers may lack GTest.
if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-clang -S . \
        -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
        -DTAPAS_THREAD_SAFETY=ON -DTAPAS_BUILD_TESTS=OFF
    cmake --build build-clang -j
else
    echo "SKIP: clang++ not found; thread-safety analysis not run" \
         "locally (CI runs it on every push)" >&2
fi

# Opt-in clang-tidy leg (slow): TAPAS_CLANG_TIDY=1 scripts/check.sh.
# Uses the compile_commands.json the Release configure exported and
# the checks pinned in .clang-tidy.
if [ "${TAPAS_CLANG_TIDY:-0}" != "0" ]; then
    echo "== clang-tidy =="
    if command -v clang-tidy >/dev/null 2>&1; then
        git ls-files 'src/*.cc' | xargs -P "$(nproc)" -n 4 \
            clang-tidy -p build --warnings-as-errors='*'
    else
        echo "FAIL: TAPAS_CLANG_TIDY=1 but clang-tidy not found" >&2
        exit 1
    fi
fi

echo "OK: all checks passed"
