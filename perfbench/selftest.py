#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks three things with short runs:
  1. every count metric repeats exactly across two traced runs with the
     same seed;
  2. turning the timing ports on or off leaves the density digests
     unchanged;
  3. a deliberately wrong reference drives error_rate above 0 and makes the
     command exit non-zero.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["amr_paper", "amr_lanes", "tenants", "characterize"]
EXACT_COUNTS = ["euler.faces", "amr.cells", "amr.ghost_bytes", "mpp.messages",
                "mpp.bytes", "mpp.hops", "core.hub_lines"]
SECONDS = "3"
SEED = 7
OUT_DIR = ".perfbench_out"


def run(workload, trace, extra=()):
    """Returns (exit code, result object or None, digest lines)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    digests = [line.split(" ", 1)[1] for line in lines if line.startswith("digest 0x")]
    return proc.returncode, result, digests


def main():
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        code_a, a, digests_a = run(w, 1)
        code_b, b, _ = run(w, 1)
        check(code_a == 0 and code_b == 0, f"{w}: traced runs pass their checks")
        if a is None or b is None:
            continue
        for m in EXACT_COUNTS:
            va, vb = a["metrics"][m]["value"], b["metrics"][m]["value"]
            check(va == vb, f"{w}: {m} repeats exactly ({va!r} vs {vb!r})")
        if w != "characterize":
            code_c, _, digests_c = run(w, 0)
            check(code_c == 0 and digests_c == digests_a and digests_a,
                  f"{w}: digests with timing ports off {digests_c} == on {digests_a}")

    with open(os.path.join("perfbench", "references.txt")) as f:
        refs = f.read().splitlines()
    wrong = []
    for line in refs:
        if line.startswith("digest amr_paper "):
            line = f"digest amr_paper {int(line.split()[2], 16) ^ 1:#018x}"
        wrong.append(line)
    os.makedirs(OUT_DIR, exist_ok=True)
    wrong_path = os.path.join(OUT_DIR, "wrong-references.txt")
    with open(wrong_path, "w") as f:
        f.write("\n".join(wrong) + "\n")
    code, res, _ = run("amr_paper", 0, ("--references", wrong_path))
    check(code != 0 and res is not None and res["failed"] > 0 and not res["correct"],
          f"amr_paper: a wrong reference fails the run (exit {code}, "
          f"failed {res['failed'] if res else None})")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
