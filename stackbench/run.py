#!/usr/bin/env python3
"""Builds and runs the full-stack benchmark.

    python3 stackbench/run.py --workload port_churn|mac_learn|all
                              [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The first run configures and builds
stackbench (Release) against ../src into .bench_build/stackbench; later runs
only rebuild what changed.  Each workload prints its generator parameters,
notes and `name value unit` metric lines; the last line of standard output is
one JSON object {correct, attempted, failed, metrics}.  With --workload all
the workloads run one after another and the last line merges them, metric
names prefixed by the workload.  See stackbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["port_churn", "mac_learn"]
RUN_TIMEOUT_S = 170


def build(root, bench_dir):
    build_dir = os.path.join(root, ".bench_build", "stackbench")
    os.makedirs(build_dir, exist_ok=True)
    out = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=out, stderr=out)
    subprocess.run(["cmake", "--build", build_dir, "--target", "stackbench",
                    "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=out, stderr=out)
    return os.path.join(build_dir, "stackbench")


def run_one(binary, root, workload, seed, seconds, trace):
    work_dir = os.path.join(root, ".bench_work",
                            "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    try:
        binary = build(root, bench_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print("stackbench: build failed: %s" % err, file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            lines, result = run_one(binary, root, workload, args.seed,
                                    args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            print("stackbench: %s" % err, file=sys.stderr)
            return 1
        print("\n".join(lines))
        if len(workloads) == 1:
            merged = result
            break
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
