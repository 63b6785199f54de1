#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload deploy_27x8 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (and through it src/) under .bench_build/perfbench; later calls
only re-check the build. The benchmark binary runs one workload in a closed
loop for --seconds, checks its outputs, and prints a run manifest line and
then the result as the last line of standard output:

    {"correct": ..., "attempted": n, "failed": n, "metrics": {name: {value, unit}}}

--trace 1 reports the per-layer metrics instead of the end-to-end ones and
writes the recorded spans as a Chrome trace to .bench_build/perfbench/traces/.
--self-check runs the workload with one deliberately wrong expectation and
exits 0 only if the benchmark counted it as a failed operation.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("deploy_27x8", "dense_8x64", "chaos_batch", "reproduce")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; build output goes to a log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no drsnet sources under {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build step failed: {' '.join(step)} (see {log_path})")


def source_rev():
    """The git revision, or a hash of the sources when there is no git."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*")):
        if path.is_file() and BUILD not in path.parents:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run(args, wrong_expectation):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_rev()]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.json")]
    if wrong_expectation:
        cmd.append("--wrong-expectation")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"benchmark exited with {out.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    check_declared(result["metrics"], args.trace)
    return lines, result


def check_declared(metrics, trace):
    """Every reported metric must be declared in BENCHMARK.json with the same
    unit, and a run must report every metric declared for its trace mode:
    end-to-end untraced, per-layer traced."""
    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        return
    declared = json.loads(declared_path.read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}
    for name, metric in metrics.items():
        if units.get(name) != metric["unit"]:
            fail(f"metric {name} [{metric['unit']}] is not declared so")
    if set(units) - set(metrics):
        fail(f"missing metrics: {sorted(set(units) - set(metrics))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    lines, result = run(args, wrong_expectation=args.self_check)
    if args.self_check:
        counted = result["failed"] >= 1 and not result["correct"]
        print(f"self-check: wrong expectation counted as failed: {counted} "
              f"(attempted {result['attempted']}, failed {result['failed']})")
        sys.exit(0 if counted else 1)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
