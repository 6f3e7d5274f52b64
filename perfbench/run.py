#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call configures and
builds perfbench/CMakeLists.txt (the symphase library, the `symphase`
CLI and the `perfbench` driver) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild
incrementally. The driver's output is passed through unchanged: its last
stdout line is the JSON result. Workloads, metrics and checks are
described in perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig3a-sample", "fig3c-compile", "surface-detect", "serve-mix")
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(cmd, timeout):
    # Build output goes to stderr: stdout carries only the driver's lines.
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def build(out):
    for required in ("src/core/symphase.hpp", "tools/symphase_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("not a symphase source checkout: %s is missing" % required)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every correctness check rejects "
                             "corrupted output, then exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out = build_dir()
    build(out)
    work = os.path.join(out, "run")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--cli", os.path.join(out, "symphase"),
           "--data", os.path.join(ROOT, "data"),
           "--work", work]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # A run measures for --seconds and spends about as long again on
    # set-up and checks: 170 s for the 20 s runs of BENCHMARK.json.
    timeout = args.seconds * 2 + 130
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("driver timed out after %d s" % timeout)
    sys.exit(code)


if __name__ == "__main__":
    main()
