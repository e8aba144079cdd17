#!/usr/bin/env python3
"""Checks e2ebench output against the deterministic counts in BENCH_e2e.json.

Timing metrics vary from host to host, but a workload's events per
delivered cell, allocations per delivered cell and digest are fixed by
the code and the seed (each is taken from the first round). This script
compares them exactly, so a change that moves any of them fails until
the pins are re-recorded on purpose.

Usage:
  python3 tools/check_e2e_counts.py OUTPUT...
  python3 tools/check_e2e_counts.py --record OUTPUT...

Each OUTPUT is the stdout of
`python3 e2ebench/run.py --workload all --seed S --seconds 1 --trace 0`;
the seed is read from its `workload NAME seed S` lines. Every pinned
(seed, workload) must appear in some OUTPUT with equal counts and digest
line, and every workload run must be pinned. Exits 1 on any difference,
one line per difference. --record rewrites BENCH_e2e.json from the
outputs instead.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

PINS = "BENCH_e2e.json"
COUNTS = ("events_per_cell", "allocs_per_cell")
HEADER = re.compile(r"^workload (\S+) seed (\d+):")
DIGEST = re.compile(r"^digest (\S+) [0-9a-f]{16}$")


def parse(path: str) -> dict[tuple[str, str], dict]:
    """(seed, workload) -> {"events_per_cell", "allocs_per_cell", "digest"}."""
    runs: dict[tuple[str, str], dict] = {}
    key = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            m = HEADER.match(line)
            if m:
                key = (m.group(2), m.group(1))
                runs[key] = {}
            elif key and DIGEST.match(line) and line.split()[1] == key[1]:
                runs[key]["digest"] = line
            elif key and line.startswith("{"):
                metrics = json.loads(line)["metrics"]
                for name in COUNTS:
                    runs[key][name] = metrics[name]["value"]
                key = None
    return runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("outputs", nargs="+")
    ap.add_argument("--pins", default=PINS)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the pins from the outputs")
    args = ap.parse_args()

    runs: dict[tuple[str, str], dict] = {}
    for path in args.outputs:
        runs.update(parse(path))

    if args.record:
        seeds: dict[str, dict] = {}
        for (seed, workload), got in sorted(runs.items(),
                                            key=lambda kv: int(kv[0][0])):
            seeds.setdefault(seed, {})[workload] = got
        with open(args.pins) as f:
            pins = json.load(f)
        pins["seeds"] = seeds
        with open(args.pins, "w") as f:
            json.dump(pins, f, indent=2)
            f.write("\n")
        print(f"recorded {len(runs)} runs into {args.pins}")
        return 0

    with open(args.pins) as f:
        seeds = json.load(f)["seeds"]
    problems = []
    for seed, workloads in seeds.items():
        for workload, want in workloads.items():
            got = runs.get((seed, workload))
            if got is None:
                problems.append(f"seed {seed} {workload}: not in the outputs")
                continue
            for name in (*COUNTS, "digest"):
                if got.get(name) != want[name]:
                    problems.append(f"seed {seed} {workload}: {name} "
                                    f"{got.get(name)!r}, pinned {want[name]!r}")
    for seed, workload in runs:
        if workload not in seeds.get(seed, {}):
            problems.append(f"seed {seed} {workload}: ran but is not pinned")
    for p in problems:
        print(p)
    print(f"check_e2e_counts: {len(runs)} runs, {len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
