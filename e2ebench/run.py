#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

usage (from the repository root):
  python3 e2ebench/run.py --workload <private_search|pir_lists|live_index> \
      --seed <n> --seconds <s> --trace <0|1>

The benchmark is built Release from the repository's own CMake project
(library only) plus e2ebench/src, into .bench_build/ at the repository root.
Build output goes to stderr; the benchmark's result is the last line of
stdout. This process is replaced by the benchmark binary (exec), so a signal
sent to it reaches the benchmark, which kills its server processes.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")


def build():
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) == 0


def main():
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
