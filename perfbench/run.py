#!/usr/bin/env python3
"""Builds and runs the ccaperf end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <amr_paper|amr_lanes|tenants|characterize> \
        --seed <n> --seconds <s> --trace <0|1> [--references <file>]

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/; later runs rebuild incrementally. Build output goes to
stderr, so the last line on stdout is the benchmark's result object. The
exit status is the benchmark's: 0 when every correctness check passed.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j4", "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the sources the binary is built from (stable without git)."""
    h = hashlib.sha256()
    for root in ("src", "perfbench", os.path.join("bench", "bench_common.hpp")):
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        for path in sorted(paths):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    knobs = sorted(k for k in os.environ if k.startswith("CCAPERF_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) +
             " set: the benchmark sets every configuration itself")
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("missing --workload")
    build()
    cmd = [BINARY] + args
    if "--references" not in args:
        cmd += ["--references", os.path.join("perfbench", "references.txt")]
    cmd += ["--git-rev", git_revision(), "--source-digest", source_digest()]
    sys.stdout.flush()
    with subprocess.Popen(cmd) as proc:
        # A runner that is stopped stops the benchmark too, and waits for it.
        def stop(signum, _frame):
            proc.kill()
            proc.wait()
            sys.exit(128 + signum)

        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", code=4)
    sys.exit(code)


if __name__ == "__main__":
    main()
