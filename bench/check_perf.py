#!/usr/bin/env python3
"""Kernel perf gate: compare a fresh bench_micro run against the
checked-in baseline (BENCH_kernel.json) and fail on regression.

Usage:
    bench_micro --benchmark_min_time=0.05 \
        --benchmark_out=current.json --benchmark_out_format=json
    python3 bench/check_perf.py --baseline BENCH_kernel.json \
        --current current.json [--tolerance-pct 25] [--update]

--current is google-benchmark's own JSON report. The gate compares
items_per_second per benchmark; a benchmark more than
--tolerance-pct slower than its baseline fails the check. A benchmark
in the current run with no key in the baseline also fails the gate —
an unbaselined benchmark is a comparison that silently never happens,
so adding one means refreshing the baseline (--update) in the same
commit. A baseline entry missing from the current run is reported but
does not fail (the run may be filtered). --update rewrites the
baseline's measurements from the current run (preserving everything
else in the file) instead of checking.

The default tolerance is deliberately loose (25%): shared CI runners
jitter by 10-15% run to run, and this gate exists to catch structural
regressions — an accidental O(n) scan in the hot path, a reintroduced
per-event allocation — not single-digit drift. If the gate fires on a
commit that plausibly changed kernel-adjacent code, believe it. If the
hardware baseline itself moved (new runner generation), refresh with
--update in a dedicated commit and say so in the message.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="checked-in BENCH_kernel.json")
    ap.add_argument("--current", required=True,
                    help="fresh bench_micro --benchmark_out JSON")
    ap.add_argument("--tolerance-pct", type=float, default=None,
                    help="allowed slowdown in percent "
                         "(default: the baseline file's tolerance_pct)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline's measurements from "
                         "--current instead of checking")
    args = ap.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    if "benchmarks" not in current or "context" not in current:
        sys.exit(f"{args.current} is not a google-benchmark JSON report")
    current_marks = {row["name"]: row.get("items_per_second", 0.0)
                     for row in current["benchmarks"]
                     if row.get("run_type") == "iteration"
                     and not row.get("error_occurred")}

    if args.update:
        baseline["benchmarks"] = {
            name: round(ips, 1) for name, ips in sorted(current_marks.items())
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"updated {args.baseline} from {args.current}")
        return

    tolerance = (args.tolerance_pct if args.tolerance_pct is not None
                 else baseline.get("tolerance_pct", 25.0))
    failures = []
    for name, base_ips in sorted(baseline["benchmarks"].items()):
        ips = current_marks.get(name)
        if ips is None:
            print(f"  ?  {name}: in baseline but not in current run")
            continue
        delta_pct = 100.0 * (ips - base_ips) / base_ips
        verdict = "ok"
        if delta_pct < -tolerance:
            verdict = "REGRESSION"
            failures.append(name)
        mark = "!!" if verdict != "ok" else "ok"
        print(f"  {mark} {name}: {ips:.3e} items/s vs baseline "
              f"{base_ips:.3e} ({delta_pct:+.1f}%)"
              f"{' ' + verdict if verdict != 'ok' else ''}")
    unbaselined = sorted(set(current_marks) - set(baseline["benchmarks"]))
    for name in unbaselined:
        print(f"  !! {name}: no baseline key in {args.baseline}")

    if failures:
        sys.exit(f"perf gate FAILED: {', '.join(failures)} regressed "
                 f"more than {tolerance:.0f}% vs {args.baseline}")
    if unbaselined:
        sys.exit(f"perf gate FAILED: {', '.join(unbaselined)} missing "
                 f"from {args.baseline} — refresh it with --update")
    print(f"perf gate passed (tolerance {tolerance:.0f}%)")


if __name__ == "__main__":
    main()
