#!/usr/bin/env python3
"""Build and run the TAPAS host-time benchmark on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the simulator library plus the
tapas_perfbench program) in $CARGO_TARGET_DIR, default .bench_build;
later runs only re-check the build. The program then runs the workload
for --seconds of wall time and this script prints a human-readable
report followed, as the last line of stdout, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones, and a Chrome trace-event file is written
next to the build. Each run is appended, with nproc and the 1-minute
load average, to perfbench-runs.jsonl in the same directory. See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_week", "oversub_place", "cluster_requests",
             "recovery_drill")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(out_dir):
    """Configure once, then build the program; returns its path."""
    tree = out_dir / "perfbench"
    if not (tree / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(tree),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(tree), "--target",
                    "tapas_perfbench", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return tree / "tapas_perfbench"


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def earlier_digests(runs_log, build_id, workload, seed):
    """Digests logged by earlier runs of this binary on this seed."""
    if not runs_log.is_file():
        return set()
    found = set()
    for line in runs_log.read_text().splitlines():
        try:
            run = json.loads(line)
        except ValueError:
            continue
        if (run.get("build") == build_id and run.get("workload") == workload
                and run.get("seed") == seed):
            found.add(run.get("digest"))
    return found


def fmt(value):
    return f"{value:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not ((ROOT / "CMakeLists.txt").is_file()
            and (ROOT / "src" / "sim" / "cluster.hh").is_file()):
        log(f"perfbench: no simulator sources under {ROOT}; run from a "
            "checkout of the repository")
        return 2

    out_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_dir.is_absolute():
        out_dir = ROOT / out_dir
    work_dir = out_dir / "perfbench-run"
    work_dir.mkdir(parents=True, exist_ok=True)
    runs_log = out_dir / "perfbench-runs.jsonl"

    exe = build(out_dir)
    build_id = file_digest(exe)
    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]

    proc = subprocess.run(
        [str(exe), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", str(work_dir)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"perfbench: tapas_perfbench exited with code {proc.returncode}")
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    failed = result["failed"]
    attempted = result["attempted"] + 1
    digest = result["digest"]
    others = earlier_digests(runs_log, build_id, args.workload,
                             args.seed) - {digest}
    if others:
        failed += 1
        log(f"perfbench: digest {digest} differs from earlier runs of "
            f"this build on seed {args.seed}: {sorted(others)}")

    reference = json.loads((HERE / "reference.json").read_text())
    ref_digest = reference["digests"][args.workload].get(str(args.seed))

    print(f"workload {args.workload}  seed {args.seed}  servers "
          f"{result['servers']}  episodes {result['episodes']} x "
          f"{result['sims_per_episode']} sims, {result['steps_per_episode']} "
          f"steps  trace {args.trace}")
    print(f"host nproc {nproc}  loadavg_1min {load1:.2f}  build {build_id}")
    if ref_digest is None:
        print(f"digest {digest} (no reference for this seed; reference "
              f"seeds {reference['default_seed']} and "
              f"{reference['held_out_seed']})")
    else:
        verdict = "identical" if ref_digest == digest else "changed"
        print(f"digest {digest} {verdict} (reference {ref_digest})")
    print(f"restored digest {result['restored_digest']}")
    print(f"failed_frac {fmt(failed / attempted)} ({failed} of {attempted} "
          "operations)")
    metrics = result["metrics"]
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        base = f"  ({m['base']})" if "base" in m else ""
        print(f"  {name:<{width}}  {fmt(m['value']):>12} {m['unit']}{base}")
    if args.trace:
        print(f"tracing overhead {fmt(100 * metrics['trace.overhead_frac']['value'])}% "
              "of untraced steps_per_s")
        print(f"trace file {result['trace_file']}")
    else:
        print(f"each step, save and restore counts at its median of "
              f"{result['timed_episodes']} replays; ckpt_save_ms_p50 is the "
              f"median of {result['saves_per_episode']} saves; setup_s is "
              f"the median of {result['setup_samples']} constructions")
        print(f"not end-to-end (too noisy across runs): step_ms_tail "
              f"{fmt(result['step_ms_tail'])} ms, "
              f"p{fmt(result['tail_percentile'])} of "
              f"{result['steps_per_episode']} steps")
        print("not end-to-end (can be 0): power_capped_frac "
              f"{fmt(result['power_capped_frac'])}  thermal_capped_frac "
              f"{fmt(result['thermal_capped_frac'])}  vm_reject_frac "
              f"{fmt(result['vm_reject_frac'])}")

    with runs_log.open("a") as out:
        out.write(json.dumps({
            "time": time.strftime("%Y-%m-%dT%H:%M:%S"), "build": build_id,
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "nproc": nproc, "loadavg_1min": load1,
            "digest": digest, "failed": failed, "attempted": attempted,
            "metrics": {k: m["value"] for k, m in metrics.items()},
        }) + "\n")

    print(json.dumps({
        "correct": bool(result["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
