#!/usr/bin/env python3
"""Builds and runs the ledger benchmark (see ledgerbench/README.md).

Usage, from the repository root:

  python3 ledgerbench/run.py --workload {tpcc,tpce,audit} \
      --seed N --seconds S --trace {0,1} [--ledger {0,1}]

Builds ledgerbench/ and the library in src/ with CMake (Release) into
$CARGO_TARGET_DIR/ledgerbench, or .bench_build/ledgerbench when the variable
is unset; runs one workload in one process; for a traced run, checks the
Chrome trace it wrote with scripts/check_trace.py. The last line of standard
output is the program's JSON result. Build output goes to standard error.
--ledger 0 runs a workload on the plain engine, for the README's
ledger-vs-regular reference figures.
Exits non-zero, without a result, when the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tpcc", "tpce", "audit")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "ledgerbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "ledgerbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ledger", type=int, choices=(0, 1), default=1)
    args = ap.parse_args()

    root = os.getcwd()
    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "ledgerbench")
    binary = build(source_dir, build_dir)

    work_dir = os.path.join(build_dir, "data-%d" % os.getpid())
    trace_path = os.path.join(build_dir, "trace-%s.json" % args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", work_dir, "--trace-out", trace_path,
           "--ledger", str(args.ledger)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("run.py: ledgerbench printed no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])

    code = proc.returncode
    if args.trace:
        checker = os.path.join(root, "scripts", "check_trace.py")
        checked = subprocess.run([sys.executable, checker, trace_path],
                                 stdout=sys.stderr, stderr=sys.stderr)
        if checked.returncode:
            result["correct"] = False
            code = code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
