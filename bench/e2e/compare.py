#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 bench/e2e/compare.py PARENT/results.json CHANGE/results.json
    python3 bench/e2e/compare.py --same-code SET0/results.json SET1/results.json

Result sets come from `run.py --sets`. Runs are paired by (workload,
seed) in the order they ran; only untraced runs count. For each workload
and end-to-end metric of BENCHMARK.json:

  gain        the change wins at least 9 of 10 pairs (ties count for
              neither side), there are at least 10 pairs, and the medians
              differ by more than the parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's spread (IQR over median) exceeds the bound,
              unless every change run beats every parent run;
  same        none of the above.

--same-code checks that two sets of the same code agree: every metric's
medians must be within its bound of each other, in either direction.
It also prints each set's spread, to hold against the bound. Exit status
is 1 on a regression (or, with --same-code, a disagreement).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict:
    """(workload, seed) -> list of untraced runs, in run order."""
    runs: dict[tuple, list] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["traced"]:
            runs.setdefault((run["workload"], run["seed"]), []).append(run)
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def compare_metric(metric: dict, parent: list, change: list, same_code: bool) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    # Relative change of the median, positive = better.
    gain = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    bound = metric["bound"]
    if same_code:
        verdict = "agree" if abs(c_med - p_med) <= bound * abs(p_med) else "DISAGREE"
        return {"parent": p_med, "change": c_med, "gain": gain, "verdict": verdict,
                "spreads": f"spread {spread(parent):.3f}/{spread(change):.3f}"}
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and \
            sign * (c_med - p_med) > p_q3 - p_q1:
        verdict = "gain"
    elif max(spread(parent), spread(change)) > bound and not every_better:
        verdict = "unresolved"
    elif gain < -bound:
        verdict = "REGRESSION"
    else:
        verdict = "same"
    return {"parent": p_med, "change": c_med, "gain": gain, "verdict": verdict,
            "wins": f"{wins}/{len(pairs)}"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--same-code", action="store_true",
                    help="both sets ran the same code: assert agreement within bounds")
    args = ap.parse_args()

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    failed = False
    for workload in workloads:
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        cells = []
        for metric in metrics:
            name = metric["name"]
            p_vals, c_vals = [], []
            for seed in seeds:
                p_runs, c_runs = parent[(workload, seed)], change[(workload, seed)]
                for p, c in zip(p_runs, c_runs):
                    p_vals.append(p["metrics"][name]["value"])
                    c_vals.append(c["metrics"][name]["value"])
            r = compare_metric(metric, p_vals, c_vals, args.same_code)
            failed = failed or r["verdict"] in ("REGRESSION", "DISAGREE")
            detail = f" {r['wins']}" if "wins" in r else f", {r['spreads']}"
            cells.append(f"{name} {r['parent']:.4g}->{r['change']:.4g} "
                         f"({r['gain']:+.1%}{detail}) {r['verdict']}")
        too_few = "" if args.same_code or len(p_vals) >= MIN_PAIRS else \
            f" (fewer than {MIN_PAIRS} pairs: no gain can be shown)"
        print(f"{workload:9} n={len(p_vals)}{too_few}: " + "; ".join(cells))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
