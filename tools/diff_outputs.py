#!/usr/bin/env python3
"""Golden-output diff between two build trees.

Runs the same set of deterministic programs from a base build and a
change build and compares what they print and the files they write:

  * every bench/bench_fig_* and bench/bench_tab_* binary;
  * every examples/* binary that takes no arguments;
  * examples/phantom_chaos --seed=S --jobs=1 --json=- for S in 1, 7, 42;
  * examples/phantom_cli on the parking scenario (seed 3) with its
    metrics, Chrome-trace and JSONL exports;
  * examples/phantom_cli with faults on a destination link (an outage;
    burst and RM loss; overlapping bursts on a trunk and a destination
    with an outage), each with its metrics and JSONL exports;
  * examples/phantom_cli on the tcp scenario: the default run
    (selective discard, 3 flows) and drop-tail with 8 flows;
  * examples/phantom_cli with the flags that shape an ABR scenario: the
    onoff scenario, a partial adversary under drop policing, overload
    protection (--buffer-cells, --no-epd, --mcr-mbps) under a memory
    squeeze, and an RM blackhole with tuned --crm/--cdf/--adtf and with
    --no-feedback-decay.

Each run gets a fresh working directory per side, so files a program
writes under relative names (observe_basics, the CLI exports) are
compared too. The one masked output is the wall-clock figure on
bench_tab_scale's `kernel: ... wall` line.

Usage:
  python3 tools/diff_outputs.py --base BUILD --change BUILD

Prints one row per output, with a unified diff under each row that is
not SAME, and exits 1 on any difference. A row reads:

  SAME       byte-identical;
  TIE-ORDER  a JSONL or Chrome-trace export whose records differ only in
             the order of records that share a timestamp (events at one
             instant that ran in another order);
  DIFF       anything else.
"""
from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile

# Example binaries that need arguments; they run through RUNS below.
TAKES_ARGUMENTS = {"phantom_chaos", "phantom_cli"}

RUNS = [(f"phantom_chaos seed {s}",
         ["examples/phantom_chaos", f"--seed={s}", "--jobs=1", "--json=-"])
        for s in (1, 7, 42)]
RUNS.append(("phantom_cli parking", [
    "examples/phantom_cli", "--scenario=parking", "--algorithm=phantom",
    "--seed=3", "--metrics-out=metrics.json", "--trace-out=trace.json",
    "--trace-jsonl=events.jsonl"]))
# Faults on a destination link, whose data cells arrive without a
# kernel event while its fault model draws nothing: an outage edge, a
# burst and RM-loss window, and parking-lot bursts overlapping a trunk's.
for label, args in [
        ("outage dest0", ["--scenario=bottleneck", "--sessions=3",
                          "--duration-ms=600",
                          "--fault-plan=outage:dest0:306:13"]),
        ("burst rmloss dest0", [
            "--scenario=bottleneck", "--sessions=3", "--duration-ms=600",
            "--fault-plan=burst:dest0:250:60:0.2:0.3:0.5;"
            "rmloss:dest0:280:40:0.3:0.2"]),
        ("parking bursts dest1 trunk0", [
            "--scenario=parking", "--sessions=4", "--duration-ms=500",
            "--seed=3",
            "--fault-plan=burst:dest1:200:80:0.2:0.3:0.5;"
            "burst:trunk0:220:60:0.1:0.4:0.6;outage:dest0:300:20"])]:
    RUNS.append((f"phantom_cli {label}", [
        "examples/phantom_cli", *args, "--metrics-out=metrics.json",
        "--trace-jsonl=events.jsonl"]))
# The TCP scenario: selective discard by default, and drop-tail with 8
# flows, where flows 4-7 share a 48 ms access delay and so arrive at the
# router at the same instants.
RUNS.append(("phantom_cli tcp", ["examples/phantom_cli", "--scenario=tcp"]))
RUNS.append(("phantom_cli tcp droptail 8", [
    "examples/phantom_cli", "--scenario=tcp", "--sessions=8",
    "--algorithm=droptail"]))
# The flags that shape an ABR scenario's wiring: the on/off driver,
# adversaries with policing, overload protection with its buffer knobs
# and MCR, the TM 4.0 feedback-loss backoff, and its ablation.
for label, args in [
        ("onoff", ["--scenario=onoff", "--duration-ms=400"]),
        ("adversary policing", [
            "--sessions=4", "--adversaries=1", "--adversary-mode=partial",
            "--compliance=0.8", "--policing=drop", "--duration-ms=400"]),
        ("overload memsqueeze", [
            "--sessions=6", "--overload", "--buffer-cells=2048", "--no-epd",
            "--mcr-mbps=4", "--duration-ms=300",
            "--fault-plan=memsqueeze:100:0.5:100",
            "--metrics-out=metrics.json"]),
        ("decay params blackhole", [
            "--crm=16", "--cdf=0.25", "--adtf=300",
            "--fault-plan=rm_blackhole:dest0:250:200"]),
        ("no feedback decay blackhole", [
            "--no-feedback-decay",
            "--fault-plan=rm_blackhole:dest0:250:200"])]:
    RUNS.append((f"phantom_cli {label}", ["examples/phantom_cli", *args]))

WALL_LINE = re.compile(r"^(kernel: \d+ events in ).*( s wall ).*$",
                       re.MULTILINE)
# One record per line: the JSONL export's "t_ns", the Chrome trace's "ts".
TIMESTAMP = re.compile(r'"(?:t_ns|ts)":([-+0-9.eE]+)')


def executables(build: str, subdir: str, prefixes: tuple[str, ...]) -> set:
    root = os.path.join(build, subdir)
    if not os.path.isdir(root):
        return set()
    return {f"{subdir}/{name}" for name in os.listdir(root)
            if name.startswith(prefixes)
            and os.path.isfile(os.path.join(root, name))
            and os.access(os.path.join(root, name), os.X_OK)}


def plan(base: str, change: str) -> list[tuple[str, list[str]]]:
    """Every (label, argv) to run; binaries found in either tree."""
    names: set = set()
    for build in (base, change):
        names |= executables(build, "bench", ("bench_fig_", "bench_tab_"))
        names |= {n for n in executables(build, "examples", ("",))
                  if os.path.basename(n) not in TAKES_ARGUMENTS}
    return [(n, [n]) for n in sorted(names)] + RUNS


def run(build: str, argv: list[str]) -> dict[str, str]:
    """Runs argv[0] from `build` in a fresh directory; returns every
    output by name: stdout, stderr, exit status and each file written.
    A binary missing from the tree yields a `missing` output, which
    always counts as a difference."""
    exe = os.path.join(os.path.abspath(build), argv[0])
    if not os.path.exists(exe):
        return {"missing": f"{exe}\n"}
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([exe] + argv[1:], cwd=cwd, capture_output=True,
                              text=True, errors="replace")
        out = {"stdout": done.stdout, "stderr": done.stderr,
               "exit": f"{done.returncode}\n"}
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name), errors="replace") as f:
                out[name] = f.read()
    if os.path.basename(argv[0]) == "bench_tab_scale":
        out["stdout"] = WALL_LINE.sub(r"\1<wall>\2<masked>", out["stdout"])
    return out


def tie_sorted(text: str) -> list[str] | None:
    """The lines of an export with each run of consecutive records that
    share a timestamp sorted, and trailing commas dropped (a swap can
    move the last record of a JSON array). None when no line carries a
    timestamp."""
    out: list[str] = []
    run: list[str] = []
    run_ts = None
    stamped = False
    for line in text.splitlines():
        body = line.rstrip(",")
        m = TIMESTAMP.search(body)
        ts = m.group(1) if m else None
        if ts is None or ts != run_ts:
            out.extend(sorted(run))
            run = []
        if ts is None:
            out.append(body)
        else:
            run.append(body)
            stamped = True
        run_ts = ts
    out.extend(sorted(run))
    return out if stamped else None


def verdict(base: dict[str, str], change: dict[str, str], key: str) -> str:
    if key == "missing" or key not in base or key not in change:
        return "DIFF"
    a, b = base[key], change[key]
    if a == b:
        return "SAME"
    sorted_a = tie_sorted(a)
    if sorted_a is not None and sorted_a == tie_sorted(b):
        return "TIE-ORDER"
    return "DIFF"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base build tree")
    ap.add_argument("--change", required=True, help="change build tree")
    args = ap.parse_args()

    differ = 0
    for label, argv in plan(args.base, args.change):
        base = run(args.base, argv)
        change = run(args.change, argv)
        for key in sorted(set(base) | set(change)):
            a = base.get(key, "")
            b = change.get(key, "")
            row = verdict(base, change, key)
            print(f"{row:<9}  {label}: {key}")
            if row != "SAME":
                differ += 1
                sys.stdout.writelines(difflib.unified_diff(
                    a.splitlines(keepends=True), b.splitlines(keepends=True),
                    f"base/{label}/{key}", f"change/{label}/{key}"))
    print(f"{differ} output(s) differ" if differ else "all outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
