#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --workload all ...   # every workload, one after another
    python3 e2ebench/run.py --self-test

The build tree lives under $CARGO_TARGET_DIR (default .bench_build) in the
checkout. Build output goes to stderr, so the benchmark's JSON result stays
the last line of stdout. Exits non-zero, printing no result, when the
checkout holds no sources to build.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "e2ebench")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2ebench")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no src/ tree next to e2ebench/; nothing to build")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "--target", "e2ebench", "-j", jobs]]
    # Configure once; the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", PACKAGE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "e2ebench")


def main():
    binary = build()
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else None
    if at is not None and args[at:at + 1] == ["all"]:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        worst = 0
        for name in names:
            done = subprocess.run([binary] + args[:at] + [name] + args[at + 1:],
                                  cwd=ROOT)
            worst = worst or done.returncode
        return worst
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
