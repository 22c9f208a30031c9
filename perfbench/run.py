#!/usr/bin/env python3
"""Runs one perfbench workload end to end.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the perfbench binary (and the warehouse libraries it links) from
the sources in this checkout, prepares the workload's repository
(generated once per checkout and reused, outside any timing), runs the
workload and checks its output. Standard output ends with the result
object: {"correct", "attempted", "failed", "metrics"}; the line before it
holds the run's details (options, seed, sample counts, cost classes, host
noise). Build and run diagnostics go to standard error. The exit code is
0 only when a valid result was printed.

Build products and data stay in the directory named by CARGO_TARGET_DIR
(default .bench_build), relative to the checkout root.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Together under the 900 s that a first run, which builds, may take. A
# later run only checks the build, reuses the repository and measures.
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 480
PREPARE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout the child is killed and reaped."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, CONFIGURE_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def check_result(line, bench, trace):
    """The result line must carry exactly the declared metrics and units."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys: {sorted(result)}")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        value = metric.get("value")
        if (metric.get("unit") != want[name] or
                not isinstance(value, (int, float)) or
                not math.isfinite(value)):
            fail(f"bad metric {name}: {metric}")
        if not trace and value <= 0:
            fail(f"end-to-end metric {name} is not positive: {value}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no request was attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the warehouse sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60", 2)

    out_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(ROOT, out_dir)
    binary = build(os.path.join(out_dir, "perfbench"))
    data = os.path.join(out_dir, "perfbench-data")
    common = ["--workload", args.workload, "--data", data]

    prepared = run([binary, "--prepare"] + common, PREPARE_TIMEOUT_S,
                   stdout=sys.stderr)
    if prepared.returncode != 0:
        fail("preparing the repository failed")
    # Flush the build's and the generator's writes now, not under the
    # measurement.
    os.sync()

    measured = run([binary] + common +
                   ["--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                    "--trace", str(args.trace)],
                   RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = [l for l in measured.stdout.splitlines() if l.strip()]
    if measured.returncode != 0 or len(lines) < 2:
        sys.stderr.write(measured.stdout)
        fail(f"{args.workload} run failed (exit {measured.returncode})")
    check_result(lines[-1], bench, args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
