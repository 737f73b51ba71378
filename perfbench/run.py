#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the EGEMM engine: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the library and
the harness (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. --trace 0 prints every end-to-end metric; --trace 1
prints every per-layer metric and writes the benchmark's spans to
.bench_out/. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
BINARY = "egemm_perfbench"
# Fresh processes whose library set-up is timed; the median is reported.
SETUP_REPS = 21
# Every process this script starts after the build ends within this budget.
RUN_BUDGET_S = 170


def build_dir(root):
    return root / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def child_env():
    env = dict(os.environ)
    env.pop("EGEMM_TUNING_FILE", None)  # the tuning cache is not part of the benchmark
    return env


def build(root, targets=(BINARY,)):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found next to {HERE}")
    out = build_dir(root)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    cache = out / "CMakeCache.txt"
    if cache.is_file():
        # A build tree configured from another checkout would silently
        # build that checkout's sources.
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
        if home not in cache.read_text().splitlines():
            raise RuntimeError(f"{out} was configured for another source tree")
    else:
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", *targets, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=850)
    return out


def run_json(cmd, deadline):
    """Runs `cmd`; returns (its stdout lines, the last one parsed as JSON)."""
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()),
                          env=child_env())
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{cmd[0]} printed nothing")
    return lines, json.loads(lines[-1])


def setup_samples(binary, workload, trace_dir, deadline):
    samples = []
    for rep in range(SETUP_REPS):
        cmd = [str(binary), "--setup-only", "--workload", workload]
        if trace_dir is not None and rep == 0:
            cmd += ["--trace-out", str(trace_dir / f"setup-{workload}.json")]
        samples.append(run_json(cmd, deadline)[1])
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    binary = build(root) / BINARY
    deadline = time.monotonic() + RUN_BUDGET_S
    trace_dir = None
    if args.trace:
        trace_dir = root / ".bench_out"
        trace_dir.mkdir(exist_ok=True)

    setups = setup_samples(binary, args.workload, trace_dir, deadline)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_dir is not None:
        cmd += ["--trace-out",
                str(trace_dir / f"trace-{args.workload}-seed{args.seed}.json")]
    lines, result = run_json(cmd, deadline)

    if args.trace:
        result["metrics"]["gemm.plan_build_us"] = {
            "value": statistics.median(s["plan_build_us"] for s in setups),
            "unit": "us"}
    else:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"setup_samples_s": [s["setup_s"] for s in setups]}))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
