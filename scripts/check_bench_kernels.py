#!/usr/bin/env python3
"""Gate kernel perf against the committed BENCH_KERNELS.json baseline.

Compares *within-run speedup ratios* (new kernel vs the direct/naive
reference measured in the same process on the same machine) rather than
absolute GFLOP/s, so the gate is robust to CI runners of different
speeds. Each row's speedup is the median of its per-pair ratios:
bench_kernels times the two kernels as interleaved pairs of samples, so
both sides of a ratio run at the host's same speed level. A kernel
FAILS if its current speedup drops below MIN_RATIO x the committed
baseline speedup (>20% relative regression) or if it disappears from
the bench output.  Absolute GFLOP/s drops are reported as warnings only.

A few kernels additionally carry *absolute* speedup floors, checked on
the committed baseline itself: these encode PR acceptance criteria (G^t's
training step through the LSTM sequence op must hold >= 1.4x over the
per-step graph, the rfft power-of-two fast path >= 2x over the scalar
reference's Bluestein at the same length, the lane-batched irfft of the
bridge >= 25x over the scalar reference per lane), so a regenerated
baseline cannot quietly launder a regression into the new normal.

Usage: check_bench_kernels.py <baseline.json> <current.json>
"""

import json
import sys

MIN_RATIO = 0.8

# name -> minimum speedup the *committed baseline* must hold.
ABSOLUTE_FLOORS = {
    "lstm_train_gt": 1.4,
    "rfft_pow2": 2.0,
    "irfft_bridge_504": 25.0,
}


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != 1:
        sys.exit(f"{path}: unexpected schema {data.get('schema')!r}")
    return {k["name"]: k for k in data["kernels"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    baseline = load(sys.argv[1])
    current = load(sys.argv[2])

    failures = []
    for name, floor in ABSOLUTE_FLOORS.items():
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: carries an absolute floor but is missing from baseline")
        elif base["speedup"] < floor:
            failures.append(
                f"{name}: committed baseline speedup {base['speedup']:.2f}x below the "
                f"{floor:.1f}x acceptance floor")

    print(f"{'kernel':<28} {'base spdup':>10} {'cur spdup':>10} {'ratio':>7}  status")
    for name, base in baseline.items():
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current bench output")
            print(f"{name:<28} {base['speedup']:>10.2f} {'-':>10} {'-':>7}  MISSING")
            continue
        ratio = cur["speedup"] / base["speedup"] if base["speedup"] > 0 else float("inf")
        ok = ratio >= MIN_RATIO
        print(f"{name:<28} {base['speedup']:>10.2f} {cur['speedup']:>10.2f} "
              f"{ratio:>7.2f}  {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"{name}: speedup {cur['speedup']:.2f}x < {MIN_RATIO} x baseline "
                f"{base['speedup']:.2f}x")
        if cur["gflops_new"] < base["gflops_new"] * MIN_RATIO:
            print(f"  warning: {name} absolute throughput {cur['gflops_new']:.2f} GF/s "
                  f"vs baseline {base['gflops_new']:.2f} GF/s (machine-dependent; not gated)")

    for name in current:
        if name not in baseline:
            print(f"  note: {name} not in baseline (new kernel; add it by regenerating "
                  f"BENCH_KERNELS.json)")

    if failures:
        print("\nkernel perf regression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print("\nkernel perf regression gate passed")


if __name__ == "__main__":
    main()
