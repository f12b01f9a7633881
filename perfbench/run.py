#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds the perfbench package (this directory's
CMakeLists.txt, which compiles ../src optimized) under .bench_build/ in
the repository root, then runs the perfbench program from the root. Its
standard output is passed through; its last line is the JSON result.
Build output goes to standard error. Exits non-zero, without a result
line, when the sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("synth-core", "explore-isa", "leak-cache", "serve-mix")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no rtl2mupath sources next to %s; run from a full checkout" % HERE)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    rc = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                        stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc:
        fail("build failed")
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate expected/<workload>/ from an audited run")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    env = dict(os.environ)
    # Keep every cache the program may write inside the checkout.
    env["RMP_CACHE_DIR"] = str(ROOT / ".bench_build" / "rmp-cache")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT.relative_to(ROOT)),
           "--expected-dir", str((HERE / "expected").relative_to(ROOT))]
    if args.write_expected:
        cmd.append("--write-expected")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
