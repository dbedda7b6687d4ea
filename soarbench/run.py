#!/usr/bin/env python3
"""Build and run the Soar/PSM-E benchmark.

Run from the repository root:

    python3 soarbench/run.py --workload cypress-learn --seed 1 --seconds 20 --trace 0
    python3 soarbench/run.py --workload all --seed 1 --seconds 10

The benchmark is built from source with dune (output under _build/), then
main.exe runs the workload. With --trace 1 its Chrome-trace JSON is written
to soarbench/_out/<workload>-seed<N>.trace.json. The last line of standard
output is the result JSON; with --workload all it merges every workload's
result, prefixing metric names with the workload name. Exits non-zero, and
prints no result, if the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "soarbench", "main.exe")
WORKLOADS = ["cypress-learn", "eight-puzzle-learn", "io-stream"]
# A run measures --seconds, plus set-up, references and its last pass.
RUN_TIMEOUT_S = 170


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def build():
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./soarbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0 and os.path.exists(EXE)


def run_one(args, workload):
    args = list(args)
    if "--workload" in args:
        args[args.index("--workload") + 1] = workload
    else:
        args += ["--workload", workload]
    if option(args, "--trace", "0") == "1" and "--trace-out" not in args:
        out = os.path.join(HERE, "_out")
        os.makedirs(out, exist_ok=True)
        seed = option(args, "--seed", "1")
        args += ["--trace-out", os.path.join(out, "%s-seed%s.trace.json" % (workload, seed))]
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("%s: exited with code %d" % (workload, proc.returncode), file=sys.stderr)
        return None
    return lines


def main():
    args = sys.argv[1:]
    workload = option(args, "--workload", None)
    if workload is None:
        print(__doc__, file=sys.stderr)
        return 2
    if not build():
        print("soarbench: build failed", file=sys.stderr)
        return 2
    if workload != "all":
        lines = run_one(args, workload)
        if lines is None:
            return 1
        print("\n".join(lines), flush=True)
        return 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines = run_one(args, name)
        if lines is None:
            return 1
        print("== %s" % name)
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
