#!/usr/bin/env python3
"""Wall-clock benchmark of privrec: builds the benchmark from the checkout's
sources, runs one workload, and prints one JSON result as the last line.

    python3 perfbench/run.py --workload serve_open|release \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build tree and the per-run work
directory live under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_open", "release")
# The benchmark itself finishes in well under this; the margin covers a slow
# host without letting a hung run outlive the 180 s budget.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        + generator,
        ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench_bench", "perfbench_selftest"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_digest():
    """Short digest of the library and benchmark sources, for provenance
    (the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 1
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
    selftest_ok = selftest.returncode == 0

    work = os.path.join(ROOT, ".bench_build",
                        "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD, "perfbench_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        log("benchmark failed with exit code %d" % done.returncode)
        return 1
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not selftest_ok:
        log("benchmark self-test failed")
        result["correct"] = False
    print("provenance " + json.dumps({
        "source_digest": source_digest(),
        "selftest": "ok" if selftest_ok else "failed",
    }))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
