#!/usr/bin/env python3
"""Gate the telemetry-off overhead of the obs layer (DESIGN 6e).

The obs layer's contract is that every disabled probe (SG_PROFILE_SCOPE,
the one probe behind both the profile tree and the trace) costs one
relaxed atomic load and a branch.  Registry instruments are not probes:
each counter or histogram update is an unconditional relaxed atomic op,
telemetry on or off, and the probe-free build keeps them, so this gate
does not see their cost.  This script measures the probe contract end
to end: it times `integration_test` from a probe-free build
(-DSPECTRA_STRIP_PROBES=ON, the "seed timing") against the
instrumented build with all telemetry env knobs unset, and fails if the
instrumented-but-disabled binary is more than MAX_OVERHEAD slower.

Like check_bench_kernels.py the gate compares *within-run ratios* on
the same machine (min-of-N against min-of-N, interleaved A/B order),
never absolute seconds, so it is robust to CI runners of different
speeds.  A third telemetry-ON pass (profiler + sampler + trace +
metrics + manifest all enabled) is timed and reported for the record
but not gated: enabled-mode cost is a feature trade-off, not a
regression.

Usage: check_obs_overhead.py <stripped_binary> <instrumented_binary>
           [--runs N] [--max-overhead FRAC] [--artifacts DIR]
"""

import argparse
import os
import subprocess
import sys
import time

MAX_OVERHEAD = 0.02  # disabled probes may cost at most 2% wall time
RUNS = 5


def clean_env():
    """Process env with every SPECTRA_* knob removed (telemetry off)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPECTRA_")}
    return env


def telemetry_on_env(artifacts):
    env = clean_env()
    env["SPECTRA_PROFILE"] = os.path.join(artifacts, "profile.json")
    env["SPECTRA_TRACE"] = os.path.join(artifacts, "trace.json")
    env["SPECTRA_METRICS"] = os.path.join(artifacts, "metrics.json")
    env["SPECTRA_RUNMETA"] = os.path.join(artifacts, "run.json")
    env["SPECTRA_SAMPLE_MS"] = "10"
    return env


def time_once(binary, env):
    start = time.perf_counter()
    proc = subprocess.run(
        [binary], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{binary}: exited {proc.returncode}")
    return elapsed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("stripped", help="integration_test from the SPECTRA_STRIP_PROBES build")
    parser.add_argument("instrumented", help="integration_test from the normal build")
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--max-overhead", type=float, default=MAX_OVERHEAD)
    parser.add_argument("--artifacts", default="obs_overhead_artifacts",
                        help="directory for the telemetry-on run's dumps")
    args = parser.parse_args()

    os.makedirs(args.artifacts, exist_ok=True)
    on_env = telemetry_on_env(args.artifacts)

    # One untimed warm-up per binary (page cache, lazy dynamic linking),
    # then interleave A/B/C so drift hits all modes evenly.
    time_once(args.stripped, clean_env())
    time_once(args.instrumented, clean_env())
    stripped, disabled, enabled = [], [], []
    for i in range(args.runs):
        stripped.append(time_once(args.stripped, clean_env()))
        disabled.append(time_once(args.instrumented, clean_env()))
        enabled.append(time_once(args.instrumented, on_env))
        print(f"run {i + 1}/{args.runs}: stripped {stripped[-1]:.3f}s  "
              f"disabled {disabled[-1]:.3f}s  enabled {enabled[-1]:.3f}s")

    # min-of-N is the standard noise-robust point estimate for a
    # deterministic workload: every slowdown source is additive.
    base, off, on = min(stripped), min(disabled), min(enabled)
    off_overhead = off / base - 1.0
    on_overhead = on / base - 1.0

    print(f"\n{'mode':<22} {'min wall':>9} {'overhead':>9}")
    print(f"{'probe-free (seed)':<22} {base:>8.3f}s {'-':>9}")
    print(f"{'telemetry disabled':<22} {off:>8.3f}s {off_overhead:>8.1%}")
    print(f"{'telemetry enabled':<22} {on:>8.3f}s {on_overhead:>8.1%}  (reported, not gated)")

    if off_overhead > args.max_overhead:
        print(f"\nobs overhead gate FAILED: disabled telemetry costs "
              f"{off_overhead:.1%} > {args.max_overhead:.0%} vs the probe-free build")
        sys.exit(1)
    print(f"\nobs overhead gate passed: disabled telemetry costs "
          f"{off_overhead:.1%} (limit {args.max_overhead:.0%})")


if __name__ == "__main__":
    main()
