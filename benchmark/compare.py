#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 benchmark/compare.py BASE_DIR NEW_DIR [--bench BENCHMARK.json]

Each directory is searched recursively for the run files sfc_bench writes
(<workload>.json, one per untraced run).  Runs pair up in path order
(run-1 with run-1, run-2 with run-2, ...), so make the two sides' i-th runs
back to back, alternating which side goes first.  For every workload and
end-to-end metric it prints each side's median and quartiles, the share of
pairs the new side wins (ties count for neither), and a verdict:

  regressed   the new median is worse than the base median by more than the
              metric's bound in BENCHMARK.json
  improved    at least ten pairs, the new side wins at least 90% of them, and
              the medians differ by more than the base side's interquartile
              range
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the bound (and the new side does not win every
              pair)
  no change   anything else

Exits 1 when any metric regressed or any run was incorrect, else 0.
"""
import argparse
import json
import pathlib
import re
import statistics
import sys


def natural_key(path):
    return [int(part) if part.isdigit() else part
            for part in re.split(r"(\d+)", str(path))]


def load_runs(directory):
    """{workload: {metric: [values]}} plus the count of incorrect runs."""
    runs, incorrect = {}, 0
    for path in sorted(pathlib.Path(directory).rglob("*.json"), key=natural_key):
        try:
            run = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(run, dict) or "definition" not in run or "metrics" not in run:
            continue
        if run["definition"].get("trace"):
            continue
        if not run.get("correct", False):
            incorrect += 1
        metrics = runs.setdefault(run["definition"]["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs, incorrect


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, better, bound):
    base_med, new_med = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if sign * (n - b) > 0) / len(pairs)
    worse_by = sign * (base_med - new_med) / abs(base_med) if base_med else 0.0
    b1, b3 = quartiles(base)
    n1, n3 = quartiles(new)
    spread = max((b3 - b1) / abs(base_med) if base_med else 0.0,
                 (n3 - n1) / abs(new_med) if new_med else 0.0)
    if worse_by > bound:
        return won, "regressed"
    if len(pairs) >= 10 and won >= 0.9 and sign * (new_med - base_med) > (b3 - b1):
        return won, "improved"
    if spread > bound and won < 1.0:
        return won, "unresolved"
    return won, "no change"


def main():
    here = pathlib.Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default=str(here.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    bench = json.loads(pathlib.Path(args.bench).read_text())
    base, base_bad = load_runs(args.base)
    new, new_bad = load_runs(args.new)
    status = 1 if base_bad or new_bad else 0
    if base_bad or new_bad:
        print(f"incorrect runs: base {base_bad}, new {new_bad}")

    header = (f"{'workload':20} {'metric':12} {'base median [q1, q3]':>32} "
              f"{'new median [q1, q3]':>32} {'won':>5}  verdict")
    print(header)
    for workload in sorted(set(base) | set(new)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = base.get(workload, {}).get(name, [])
            n = new.get(workload, {}).get(name, [])
            if not b or not n:
                print(f"{workload:20} {name:12} missing on one side")
                continue

            def cell(values):
                q1, q3 = quartiles(values)
                return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"

            won, text = verdict(b, n, metric["better"], metric["bound"])
            if text == "regressed":
                status = 1
            print(f"{workload:20} {name:12} {cell(b):>32} {cell(n):>32} "
                  f"{won:5.0%}  {text}")
    return status


if __name__ == "__main__":
    sys.exit(main())
