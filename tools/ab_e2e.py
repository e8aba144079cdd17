#!/usr/bin/env python3
"""Interleaved A/B runs of the end-to-end benchmark (e2ebench).

Runs the benchmark of two checkouts, a base (the parent commit) and a
change, on one workload (or on every workload in BENCHMARK.json) for N
pairs of runs. Each checkout builds and runs through its own
`e2ebench/run.py`, under its own CARGO_TARGET_DIR. The side that runs
first alternates from pair to pair, so a host that speeds up or slows
down over the session does not favour one side.

Usage:
  python3 tools/ab_e2e.py --base DIR --change DIR --workload abr_wan|all
      [--pairs 10] [--seconds 25] [--seed 1] [--metric ns_per_cell]
      [--base-target DIR] [--change-target DIR]

`--seconds` defaults to the run length in the base's BENCHMARK.json.
The target directories default to `.bench_build` inside each checkout.
`--workload all` runs the series of each workload in turn.

For each workload, prints one line per pair, then each side's median
and quartiles of the metric, the pairs the change won, and the ratio of
the change's median to the base's. A table of every end-to-end metric
in BENCHMARK.json follows: both medians, their ratio and the metric's
regression bound. The run ends with one summary row per workload: both
medians with their quartiles, pairs won, the ratio with its base, and
a verdict on the metric:
  gain        the change won at least 9 of every 10 pairs and the
              medians differ by more than the base's quartile spread;
  regression  the change's median is worse than the base's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  neither.
Exits 1 when the two sides print different `digest` lines (the change
altered what the simulator computes), 2 when a run fails or reports
`"correct": false`.

Run a series alone on the host. Alternating the sides cancels a slow
drift, but not work that competes with one run and not the next: a
build, a test suite or another series beside it skews single workloads
(on a 4-vCPU VM a side-by-side seed-1 series read `tcp_mechanisms` at
1.055x, 2/10 pairs, where a lone rerun of the same code read 1.005x,
4/10). A regression read side by side with other work counts only once
a lone rerun confirms it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def lower_is_better(bench: dict, metric: str) -> bool:
    """Whether BENCHMARK.json declares `metric` better when lower."""
    for entry in bench.get("end_to_end", []) + bench.get("per_layer", []):
        if entry["name"] == metric:
            return entry["better"] == "lower"
    sys.exit(f"ab_e2e: {metric} is not a metric in BENCHMARK.json")


def run_once(checkout: str, target: str, workload: str,
             args) -> tuple[dict, list[str]]:
    """One benchmark run; returns its metrics and its digest lines."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(checkout, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        print(f"ab_e2e: run failed in {checkout} (exit {done.returncode})")
        sys.exit(2)
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        print(f"ab_e2e: run in {checkout} reported correct=false")
        print("\n".join(lines))
        sys.exit(2)
    digests = [ln for ln in lines if ln.startswith("digest")]
    metrics = {k: float(v["value"]) for k, v in result["metrics"].items()}
    return metrics, digests


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (inclusive method, as over a full sample)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def bound_of(bench: dict, metric: str) -> float | None:
    """The regression bound BENCHMARK.json fixes for `metric`, if any."""
    for entry in bench["end_to_end"]:
        if entry["name"] == metric:
            return entry["bound"]
    return None


def verdict(won: int, pairs: int, base: tuple, change: tuple, lower: bool,
            bound: float | None) -> str:
    """gain, regression or unresolved, by the rule in the module doc."""
    better = change[0] < base[0] if lower else change[0] > base[0]
    gap = abs(change[0] - base[0])
    if better and 10 * won >= 9 * pairs and gap > base[2] - base[1]:
        return "gain"
    worse_by = (change[0] - base[0] if lower else base[0] - change[0])
    if bound is not None and worse_by > bound * abs(base[0]):
        return "regression"
    return "unresolved"


def run_series(args, workload: str, sides: dict, bench: dict,
               lower: bool) -> dict:
    """The pair series of one workload; prints it and returns a summary."""
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    digests: dict[str, set[str]] = {"base": set(), "change": set()}
    won = 0
    print(f"{workload} seed {args.seed}, {args.seconds:g} s runs, "
          f"{args.metric} ({'lower' if lower else 'higher'} is better)")
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        got = {}
        for side in order:
            checkout, target = sides[side]
            metrics, lines = run_once(checkout, target, workload, args)
            runs[side].append(metrics)
            digests[side].update(lines)
            got[side] = metrics[args.metric]
        # A tie counts for neither side.
        sign = (got["base"] > got["change"]) - (got["base"] < got["change"])
        better = sign if lower else -sign
        won += better > 0
        result = {1: "change wins", 0: "tie", -1: "base wins"}[better]
        print(f"pair {i + 1:2d} ({order[0]} first): base {got['base']:.4g}  "
              f"change {got['change']:.4g}  {result}", flush=True)

    stats = {side: summary([m[args.metric] for m in r])
             for side, r in runs.items()}
    for side in ("base", "change"):
        med, q1, q3 = stats[side]
        print(f"{side:6s}: median {med:.4g}  quartiles {q1:.4g}-{q3:.4g}")
    ratio = stats["change"][0] / stats["base"][0]
    spread = stats["base"][2] - stats["base"][1]
    gap = abs(stats["change"][0] - stats["base"][0])
    print(f"change won {won}/{args.pairs} pairs; median ratio "
          f"{ratio:.3f} of the base's {stats['base'][0]:.4g}; "
          f"median gap {gap:.4g} vs base quartile spread {spread:.4g}")

    print("end-to-end medians: metric  base  change  change/base  (bound)")
    for entry in bench["end_to_end"]:
        name = entry["name"]
        med = {side: statistics.median(m[name] for m in r)
               for side, r in runs.items()}
        ratio_txt = (f"{med['change'] / med['base']:.3f}" if med["base"]
                     else "n/a")
        print(f"  {name:16s} {med['base']:.4g}  {med['change']:.4g}  "
              f"{ratio_txt}  ({entry['better']} is better, bound "
              f"{entry['bound']:g})")

    same = digests["base"] == digests["change"]
    if same:
        print("digests match: " + "; ".join(sorted(digests["base"])))
    else:
        print("DIGEST MISMATCH")
        print("  base:   " + "; ".join(sorted(digests["base"])))
        print("  change: " + "; ".join(sorted(digests["change"])))
    print(flush=True)
    return {
        "workload": workload, "base": stats["base"],
        "change": stats["change"], "won": won, "ratio": ratio,
        "digests_match": same,
        "verdict": verdict(won, args.pairs, stats["base"], stats["change"],
                           lower, bound_of(bench, args.metric)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="checkout of the parent")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True,
                    help="a workload in BENCHMARK.json, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--metric", default="ns_per_cell")
    ap.add_argument("--base-target")
    ap.add_argument("--change-target")
    args = ap.parse_args()
    base = os.path.abspath(args.base)
    change = os.path.abspath(args.change)
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")
    bench = load_benchmark(base)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r} (want one of "
                 f"{', '.join(names)} or all)")
    sides = {
        "base": (base, os.path.abspath(
            args.base_target or os.path.join(base, ".bench_build"))),
        "change": (change, os.path.abspath(
            args.change_target or os.path.join(change, ".bench_build"))),
    }
    if sides["base"][1] == sides["change"][1]:
        ap.error("the two sides need their own target directories")
    lower = lower_is_better(bench, args.metric)

    workloads = names if args.workload == "all" else [args.workload]
    rows = [run_series(args, w, sides, bench, lower) for w in workloads]

    print(f"summary: {args.metric}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs per workload")
    def spread(q: tuple) -> str:
        return f"{q[0]:.4g} ({q[1]:.4g}-{q[2]:.4g})"

    print(f"  {'workload':16s}  {'base median (q1-q3)':24s}  "
          f"{'change median (q1-q3)':24s}  {'won':5s}  "
          f"{'change/base':16s}  verdict")
    for r in rows:
        won = f"{r['won']}/{args.pairs}"
        ratio = f"{r['ratio']:.3f} of {r['base'][0]:.4g}"
        print(f"  {r['workload']:16s}  {spread(r['base']):24s}  "
              f"{spread(r['change']):24s}  {won:5s}  {ratio:16s}  "
              f"{r['verdict']}"
              f"{'' if r['digests_match'] else '  DIGEST MISMATCH'}")
    return 0 if all(r["digests_match"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
