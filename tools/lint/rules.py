"""Rule table for tapas-lint (scripts/tapas_lint.py).

Each rule is data, not code: the engine walks the repo once and
applies every rule whose scope matches the file. Adding a repo
convention = adding an entry here plus a fixture pair under
tests/tooling/fixtures/ (the ctest suite asserts each rule's ID and
exit code against those fixtures).

Scope globs are matched against the path relative to the lint root
(the repo root in normal runs, a fixture mini-root in tests).

Escape hatch: a violating line is excused when `lint-allow(<id>):`
appears on the line itself or in the contiguous `//` comment block
immediately above it. The escape must name the rule it silences.
"""

# Paths never walked by a default tapas-lint / tapas-analyze run.
# The fixture mini-roots contain intentional violations of every rule
# (the tooling suites lint them explicitly with --root); build trees
# hold generated sources. Single source of truth: the lint engine,
# the analyze engine, and the CMake test glob (via execute_process)
# all consume this list, so a new fixture dir cannot drift between
# them.
FIXTURE_DIRS = [
    "tests/tooling/fixtures",
]

DEFAULT_EXCLUDES = (
    ["%s/**" % d for d in FIXTURE_DIRS]
    + [
        "build*/**",
        ".git/**",
    ]
)

# Scalar per-server ProfileBank predictions that survive only as the
# batch tests' reference and the offline benches' per-server API.
# Decision code must use the batched functions (ProfileBank::
# predictInlet/predictPower/predictAirflow/predictHottestGpu); see
# the scalar-predict-deprecated note at the definitions.
_SCALAR_DEPRECATED = (
    "predictInletC",
    "predictGpuTempC",
    "predictHottestGpuC",
    "predictServerPowerW",
    "predictServerAirflowCfm",
)

RULES = [
    {
        "id": "R1",
        "name": "no-deprecated-scalar-calls",
        "summary": "deprecated scalar ProfileBank predict* call in"
                   " library code (use the batched functions)",
        "kind": "pattern",
        "pattern": r"\b(?:%s)\s*\(" % "|".join(_SCALAR_DEPRECATED),
        "include": ["src/**"],
        # The defining files: the declarations and definitions live
        # here by design.
        "exclude": [
            "src/telemetry/profiles.hh",
            "src/telemetry/profiles.cc",
        ],
        "strip_comments": True,
    },
    {
        "id": "R2",
        "name": "determinism",
        "summary": "nondeterministic source in src/ (everything must"
                   " derive from SimConfig::seed)",
        "kind": "pattern",
        "pattern": (
            r"std::random_device"
            r"|(?<![A-Za-z0-9_])s?rand\s*\("
            r"|(?<![A-Za-z0-9_])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"
            r"|system_clock"
        ),
        "include": ["src/**"],
        "exclude": [],
        "strip_comments": True,
    },
    {
        "id": "R3",
        "name": "hot-region-allocations",
        "summary": "allocation call inside a // tapas-hot region"
                   " (member scratch only on the step loop)",
        "kind": "hot-region",
        # `new`, or container growth on a receiver that is not named
        # as scratch. The receiver capture lets the engine exempt
        # *Scratch members (persistent capacity, steady-state
        # allocation-free by construction).
        "pattern": (
            r"(?<![A-Za-z0-9_])new(?![A-Za-z0-9_])"
            r"|(?P<recv>[A-Za-z_][A-Za-z0-9_]*)\s*\.\s*"
            r"(?:push_back|emplace_back|resize|reserve)\s*\("
        ),
        "receiver_allow": r"[Ss]cratch",
        "include": [
            "src/sim/cluster.cc",
            "src/core/risk.cc",
            "src/core/router.cc",
            "src/core/tapas.cc",
        ],
        "exclude": [],
        "strip_comments": True,
    },
    {
        "id": "R4",
        "name": "no-iostream-in-library",
        "summary": "iostream/printf in library code (use"
                   " common/logging)",
        "kind": "pattern",
        "pattern": (
            r"#\s*include\s*<iostream>"
            r"|std::cout|std::cerr"
            r"|(?<![A-Za-z0-9_])printf\s*\("
        ),
        "include": ["src/**"],
        # common/logging IS the sanctioned sink; CSV/table/timer
        # emitters format with snprintf, which the lookbehind above
        # already permits.
        "exclude": ["src/common/logging.hh", "src/common/logging.cc"],
        "strip_comments": True,
    },
    {
        "id": "R5",
        "name": "header-guard-naming",
        "summary": "header guard must be TAPAS_<PATH>_HH derived from"
                   " the path under src/",
        "kind": "header-guard",
        "include": ["src/**/*.hh"],
        "exclude": [],
    },
    {
        "id": "R6",
        "name": "no-disabled-or-skipped-tests",
        "summary": "DISABLED_/GTEST_SKIP in tests (silently stops"
                   " gating; fix or delete the test)",
        "kind": "pattern",
        "pattern": (
            r"TEST(?:_F|_P)?\(.*DISABLED_"
            r"|DISABLED_[A-Za-z0-9_]+\s*,"
            r"|GTEST_SKIP"
        ),
        "include": ["tests/**"],
        "exclude": [],
        "strip_comments": True,
    },
    {
        "id": "R7",
        "name": "lock-discipline",
        "summary": "raw std::mutex family in src/ (use the annotated"
                   " tapas::Mutex wrappers from"
                   " common/thread_annotations.hh)",
        "kind": "pattern",
        "pattern": (
            r"std::(?:recursive_|timed_|shared_)?mutex(?![A-Za-z0-9_])"
            r"|std::lock_guard|std::unique_lock|std::scoped_lock"
            r"|std::condition_variable(?![A-Za-z0-9_])"
        ),
        "include": ["src/**"],
        # The wrappers themselves are the one sanctioned user.
        "exclude": ["src/common/thread_annotations.hh"],
        "strip_comments": True,
    },
    {
        "id": "R8",
        "name": "no-raw-file-writes",
        "summary": "raw fopen/fwrite/ofstream outside the"
                   " serialization layer (use atomicWriteFile /"
                   " readFile* from common/serialize.hh)",
        "kind": "pattern",
        # Write-side primitives only: a torn *read* is handled by the
        # checkpoint CRC/length checks, so std::ifstream stays legal
        # (bench loaders read baselines with it). Every durable write
        # must go through atomic write-rename or a crash can leave a
        # torn file that later reads as silent corruption.
        "pattern": (
            r"\bfopen\s*\("
            r"|\bfwrite\s*\("
            r"|std::ofstream"
            r"|std::fstream(?![A-Za-z0-9_])"
        ),
        "include": ["src/**", "bench/**", "examples/**"],
        # The one sanctioned user: the atomic write-rename itself.
        "exclude": [
            "src/common/serialize.cc",
            "src/common/serialize.hh",
        ],
        "strip_comments": True,
    },
]
