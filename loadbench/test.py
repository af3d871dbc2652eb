#!/usr/bin/env python3
"""loadbench's own test. Run from the repository root:

    python3 loadbench/test.py

Checks, for every workload:
  1. its generator config produces valid samples at the stated size (every
     distinct sample serializes, stores and decodes to the expected shape);
  2. inputs are seeded: the same seed prints the same input digest, another
     seed a different one;
  3. the output check catches damage: with one stored sample damaged so that
     it still decodes, the run gets through set-up and the timed region,
     its output check reports mismatched batches, and it exits non-zero with
     "correct": false, while the same run undamaged exits 0.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (loadbench/run.py)


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def digest(binary, workload, seed):
    proc = subprocess.run(
        [binary, "--validate-inputs", "--workload", workload, "--seed",
         str(seed)], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if proc.returncode != 0:
        fail("%s seed %d: invalid inputs:\n%s" % (workload, seed, proc.stdout))
    match = re.search(r"digest=(\d+)", proc.stdout)
    if not match:
        fail("%s: no digest in %r" % (workload, proc.stdout))
    return match.group(1)


def short_run(binary, workload, damage):
    """Returns (exit code, JSON result, mismatched batches of the check)."""
    cmd = [binary, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", "0", "--work-dir", os.path.relpath(run.build_dir())]
    if damage:
        cmd.append("--damage")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    match = re.search(r"^loadbench check batches=\d+ mismatched=(\d+)",
                      proc.stdout, re.MULTILINE)
    mismatched = int(match.group(1)) if match else None
    return proc.returncode, result, mismatched


def main():
    binary = run.build()
    if binary is None:
        fail("build failed")
    for workload in run.WORKLOADS:
        first, again, other = (digest(binary, workload, 1),
                               digest(binary, workload, 1),
                               digest(binary, workload, 2))
        if first != again:
            fail("%s: seed 1 gave digests %s and %s" % (workload, first, again))
        if first == other:
            fail("%s: seeds 1 and 2 gave the same inputs" % workload)
        print("ok   %-20s inputs valid and seeded (digest %s)" %
              (workload, first))

        code, result, mismatched = short_run(binary, workload, damage=False)
        if code != 0 or not result.get("correct") or mismatched != 0:
            fail("%s: clean run failed (exit %d, %r)" % (workload, code, result))
        code, result, mismatched = short_run(binary, workload, damage=True)
        if code == 0 or result.get("correct", True):
            fail("%s: damaged input not caught (exit %d, %r)" %
                 (workload, code, result))
        if not result.get("metrics") or not mismatched:
            fail("%s: damaged run failed before its output check could catch "
                 "it (exit %d, mismatched %r)" % (workload, code, mismatched))
        print("ok   %-20s damaged input caught by the output check (exit %d, "
              "%d mismatched, failed %s of %s)" %
              (workload, code, mismatched, result.get("failed"),
               result.get("attempted")))
    print("all loadbench checks passed")


if __name__ == "__main__":
    main()
