#!/usr/bin/env python3
"""Build and run loadbench, the consumer-side loader benchmark.

Run from the repository root:

    python3 loadbench/run.py --workload cosmo-local --seed 1 --seconds 16 --trace 0
    python3 loadbench/run.py --all --seed 1 --seconds 16

The first form builds loadbench (CMake, into $CARGO_TARGET_DIR or
.bench_build) and runs one workload; its last stdout line is the JSON result
and its exit code is the benchmark's. `--all` runs every workload in turn and
prints a summary, including the measured plugin-vs-baseline ratio. Build
output goes to stderr.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cosmo-local", "cosmo-gzip", "cam-served", "cosmo-served-cached"]


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        os.path.dirname(HERE), ".bench_build")
    return os.path.join(root, "loadbench")


def build():
    """Configure (once) and build; returns the binary path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "loadbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "loadbench")


def run_all(binary, args):
    """Run every workload and print a summary with the measured ratio."""
    seed, seconds = "1", "16"
    for flag, value in zip(args, args[1:]):
        if flag == "--seed":
            seed = value
        elif flag == "--seconds":
            seconds = value
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [binary, "--workload", name, "--seed", seed, "--seconds", seconds,
             "--trace", "0", "--work-dir", os.path.relpath(build_dir())],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print("\nsummary (seed %s, %s s per timed run)" % (seed, seconds))
    for name, result in results.items():
        metrics = result["metrics"] if result else {}
        sps = metrics.get("samples_per_s", {}).get("value", float("nan"))
        print("  %-20s correct=%-5s samples_per_s=%10.2f" %
              (name, result and result["correct"], sps))
    local = results.get("cosmo-local") or {}
    gzip = results.get("cosmo-gzip") or {}
    try:
        ratio = (local["metrics"]["samples_per_s"]["value"] /
                 gzip["metrics"]["samples_per_s"]["value"])
        print("  measured plugin/baseline ratio (cosmo-local / cosmo-gzip "
              "samples_per_s, dim 64, this host): %.2fx" % ratio)
    except (KeyError, ZeroDivisionError):
        print("  measured plugin/baseline ratio: unavailable")
    return status


def main():
    binary = build()
    if binary is None:
        print("loadbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--all" in args:
        return run_all(binary, [a for a in args if a != "--all"])
    if "--work-dir" not in args:
        # Relative, so the wire socket path stays within AF_UNIX's limit.
        args += ["--work-dir", os.path.relpath(build_dir())]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
