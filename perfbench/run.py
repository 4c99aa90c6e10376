#!/usr/bin/env python3
"""Build and run the irep benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

Run from the root of a checkout. The first run builds the library, the
`irep` CLI and the benchmark harness from source into .bench_build/
(about a minute on 4 CPUs); later runs reuse that build. Every IREP_*
variable is dropped, so the shipped defaults are measured.

The harness's human-readable report (configuration, every metric with
its unit, findings) goes to stdout; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`, where `metrics`
holds exactly the BENCHMARK.json `end_to_end` metrics (--trace 0) or
`per_layer` metrics (--trace 1). Exits nonzero, printing no result,
when the build or the run fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("window-serial", "window-sharded", "trace-roundtrip",
             "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("IREP_")}


def build():
    """Configure once, then an incremental build (a no-op when fresh)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "core")):
        fail("no irep sources next to perfbench/; run from a checkout")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(os.cpu_count() or 1), "--target", "perfbench",
                  "irep"])
    for step in steps:
        done = subprocess.run(step, env=clean_env(), stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_harness(args, work_dir):
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--irep", os.path.join(BUILD, "irep_tools", "irep"),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--spans-out", os.path.join(
            ROOT, ".bench_build",
            f"spans-{args.workload}-{args.seed}.json")]
    # Its own process group, so a timeout also stops the daemon it spawns.
    proc = subprocess.Popen(command, env=clean_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv[1:])

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    build()
    work_dir = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        out = run_harness(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the harness printed no result line")
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    missing = [name for name in wanted
               if name not in metrics
               or not math.isfinite(metrics[name]["value"])]
    if missing:
        fail(f"metrics missing from {args.workload}: {', '.join(missing)}")
    result["metrics"] = {name: metrics[name] for name in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
