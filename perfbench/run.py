#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds `perfbench` (the simulator
libraries from src/ plus perfbench/harness.cc, Release) under
$CARGO_TARGET_DIR (default .bench_build), then compiles the warm
workloads' native kernels into the benchmark's private artifact caches,
untimed. The harness prints the metrics; its last stdout line is the
JSON result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, logfile):
    with open(logfile, "w") as f:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=f,
                            stderr=subprocess.STDOUT).returncode
    if rc != 0:
        with open(logfile) as f:
            sys.stderr.write(f.read()[-4000:])
        log("command failed (%d): %s" % (rc, " ".join(cmd)))
    return rc == 0


def build(build_dir):
    """Configure (once) and build the harness; returns its path."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    logfile = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", "perfbench", "-B", cmake_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], logfile):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", cmake_dir, "--target",
                       "perfbench", "-j", jobs], logfile):
        return None
    return os.path.join(cmake_dir, "perfbench")


def warm(binary, run_dir):
    """Compile the warm workloads' kernels once per harness build."""
    stamp = os.path.join(run_dir, "warm.stamp")
    key = str(os.stat(binary).st_mtime_ns)
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == key:
                return True
    log("warming the private artifact caches (first run only)")
    os.makedirs(run_dir, exist_ok=True)
    if not run_logged([binary, "--warm", "--dir", run_dir],
                      os.path.join(run_dir, "warm.log")):
        return False
    with open(stamp, "w") as f:
        f.write(key)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found; nothing to benchmark")
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    run_dir = os.path.join(build_dir, "run")
    # Keep the compilers' temporary files inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    binary = build(build_dir)
    if not binary:
        return 1
    if args.self_test:
        return subprocess.run([binary, "--self-test", "--dir", build_dir],
                              cwd=ROOT).returncode
    if not warm(binary, run_dir):
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("workload %s timed out after %d s" % (args.workload,
                                                  RUN_TIMEOUT_S))
        return 1


if __name__ == "__main__":
    sys.exit(main())
