#!/usr/bin/env python3
"""Runner for the end-to-end benchmark (README.md in this directory).

One run:
    python3 bench/e2e/run.py --workload train --seed 1 --seconds 15 --trace 0

builds bench_e2e from source into build-bench/e2e (first run only) as part
of the repo's own CMake project, runs one workload in its own process with
outputs under build-bench/e2e-out, prints every metric with its unit, and
ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics of BENCHMARK.json; setup_s is
the median of SETUP_PROCS cold set-ups, each in a fresh process (the
measured run's own and SETUP_PROCS - 1 `--setup-only` runs). --trace 1
reruns with the profiler on and reports the per-layer ledger instead.

Result sets:
    python3 bench/e2e/run.py --sets 2 [--seeds 1,...,10] [--out DIR]
        [--binaries PARENT_BIN,CHANGE_BIN]

runs every workload untraced on every seed once per set (the sets
alternate run by run, and which set goes first alternates seed by seed),
writes DIR/set<k>/results.json, asserts that each seed gives one output
digest across all runs, then calls compare.py on the first two sets:
with --same-code when every set ran this checkout's build, as parent
against change when --binaries names one binary per set.

Smoke test (the bench_e2e_smoke ctest):
    python3 bench/e2e/run.py --smoke-test --binary PATH --out DIR
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# build-*/ is already in the repo's .gitignore.
BUILD = ROOT / "build-bench" / "e2e"
OUT = ROOT / "build-bench" / "e2e-out"
WORKLOADS = ("train", "citygen", "megacity", "serve")
DEFAULT_SEEDS = tuple(range(1, 11))
SETUP_PROCS = 5
RUN_TIMEOUT_S = 170  # for all processes of one run together
UNATTRIBUTED_FLAG = 0.10

# Ledger rows: profile node names flattened into one layer.
LAYERS = {
    "nn.gemm": ("nn/gemm",),
    "nn.conv2d": ("nn/conv2d_forward", "nn/conv2d_backward"),
    "nn.lstm_step": ("nn/lstm_step",),
    "nn.lstm_forward": ("nn/lstm_forward",),
    "dsp.fft": ("dsp/fft",),
    "core.irfft_bridge": ("core/irfft_bridge", "core/irfft_bridge_backward"),
    "core.generate": ("core/generate_city_streamed",),
    "geo.strip_finalize": ("geo/strip_finalize",),
    "geo.sink.write": ("bench/sink_write",),
    "serve.request": ("serve/request",),
    "serve.emit": ("bench/emit",),
    "serve.submit": ("bench/submit",),
    "core.train": ("train/run",),
    "core.train.sample": ("train/sample",),
    "core.train.g_forward": ("train/g_forward",),
    "core.train.d_step": ("train/d_step",),
    "core.train.g_step": ("train/g_step",),
    "core.train.backward": ("train/backward",),
    "train.checkpoint.restore": ("checkpoint/restore",),
}
# The scope each op runs under; its own self time is what no layer
# explains (obs.unattributed_share).
OP_ROOTS = ("bench/train", "bench/citygen", "bench/megacity", "serve/request")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build() -> Path:
    """Configure and build bench_e2e; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(f"run.py: no repo build at {ROOT} (CMakeLists.txt and src/)")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release",
                            f"-DCMAKE_PROJECT_INCLUDE={HERE / 'attach.cmake'}"],
                           check=True, stdout=sys.stderr, env=env)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs],
                       check=True, stdout=sys.stderr, env=env)
    return BUILD / "bench_e2e"


def run_binary(binary: Path, workload: str, seed: int, seconds: float, out: Path,
               traced: bool, extra=(), timeout: float = RUN_TIMEOUT_S
               ) -> tuple[int, dict | None]:
    """Run one workload process; returns (exit code, result.json or None)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # The library reads SPECTRA_* knobs; a benchmark run must not.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPECTRA_")}
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", str(out), *extra]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # the child is killed and reaped
        log(f"run.py: {workload} seed {seed} ran out of its {RUN_TIMEOUT_S} s")
        return 124, None
    result_path = out / "result.json"
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    return proc.returncode, result


# --------------------------------------------------------------------------
# Ledger: flatten the profile tree by node name.

def flatten(profile: dict) -> tuple[dict, float]:
    """Per node name: calls, incl, excl, flops; plus total profiled time."""
    nodes: dict[str, dict] = {}

    def walk(node):
        agg = nodes.setdefault(node["name"], {"calls": 0, "incl": 0.0, "excl": 0.0,
                                              "flops": 0.0})
        agg["calls"] += node["calls"]
        agg["incl"] += node["incl_seconds"]
        agg["excl"] += node["excl_seconds"]
        agg["flops"] += node["flops"]
        for child in node["children"]:
            walk(child)

    for root in profile["tree"]:
        walk(root)
    total = sum(root["incl_seconds"] for root in profile["tree"])
    return nodes, total


def ledger(result: dict, profile: dict) -> tuple[dict, list]:
    """Per-layer metrics plus the printable ledger rows."""
    nodes, total = flatten(profile)
    total = total or 1.0
    rows = {}
    for layer, names in LAYERS.items():
        agg = {"calls": 0, "incl": 0.0, "excl": 0.0, "flops": 0.0}
        for name in names:
            for key in agg:
                agg[key] += nodes.get(name, {}).get(key, 0)
        rows[layer] = agg
    reg = result["registry"]
    extra = result["extra"]

    def self_s(layer):
        return rows[layer]["excl"]

    def share(layer, key="excl"):
        return rows[layer][key] / total

    def gflops(layer):
        incl = rows[layer]["incl"]
        return rows[layer]["flops"] / incl * 1e-9 if incl > 0 else 0.0

    fft_calls = reg["fft.calls"] + reg["fft.rfft_fast_calls"]
    traced, untraced = result["traced_op_s"], result["untraced_op_s"]
    queue_wait = extra.get("queue_wait_mean_s", 0.0)
    latency = queue_wait + extra.get("compute_mean_s", 0.0)
    unattributed = sum(nodes.get(name, {}).get("excl", 0.0) for name in OP_ROOTS) / total

    m = {
        "nn.gemm.self_s": self_s("nn.gemm"),
        "nn.gemm.share": share("nn.gemm"),
        "nn.gemm.gflops": gflops("nn.gemm"),
        "nn.gemm.calls": rows["nn.gemm"]["calls"],
        "nn.gemm.workspace_grows": reg["gemm.workspace_grows"],
        "nn.conv2d.self_s": self_s("nn.conv2d"),
        "nn.conv2d.share": share("nn.conv2d"),
        "nn.conv2d.gflops": gflops("nn.conv2d"),
        "nn.lstm_step.self_s": self_s("nn.lstm_step"),
        "nn.lstm_step.share": share("nn.lstm_step"),
        "nn.lstm_step.gflops": gflops("nn.lstm_step"),
        "nn.lstm_forward.self_s": self_s("nn.lstm_forward"),
        "dsp.fft.self_s": self_s("dsp.fft"),
        "dsp.fft.share": share("dsp.fft"),
        "dsp.fft.gflops": gflops("dsp.fft"),
        "dsp.fft.calls": rows["dsp.fft"]["calls"],
        "dsp.fft.bluestein_frac": reg["fft.bluestein_calls"] / fft_calls if fft_calls else 0.0,
        "core.irfft_bridge.self_s": self_s("core.irfft_bridge"),
        "core.irfft_bridge.share": share("core.irfft_bridge"),
        "core.train.sample_share": share("core.train.sample", "incl"),
        "core.train.g_forward_share": share("core.train.g_forward", "incl"),
        "core.train.d_step_share": share("core.train.d_step", "incl"),
        "core.train.g_step_share": share("core.train.g_step", "incl"),
        "core.train.backward_share": share("core.train.backward", "incl"),
        "core.train.self_share": share("core.train"),
        "data.sample.share": share("core.train.sample"),
        "train.checkpoint.write_share":
            reg["checkpoint.write_seconds"] / result["phase_wall_s"],
        "train.checkpoint.writes": reg["checkpoint.writes"],
        "core.generate.share": share("core.generate"),
        "geo.strip_finalize.share": share("geo.strip_finalize"),
        "geo.sink.write_share": share("geo.sink.write"),
        "geo.strip_resident_bytes_peak": reg["geo.strip_resident_bytes_peak"],
        "geo.rows_spilled": reg["geo.rows_spilled"],
        "geo.patches_accumulated": reg["geo.patches_accumulated"],
        "serve.queue_wait_frac": max(0.0, queue_wait) / latency if latency > 0 else 0.0,
        "serve.emit_share": share("serve.emit"),
        "serve.inflight_peak": reg["serve.inflight_peak"],
        "serve.queue_depth_peak": reg["serve.queue_depth_peak"],
        "serve.requests_rejected": reg["serve.requests_rejected"],
        "pool.parallel_chunks": reg["pool.parallel_chunks"],
        "pool.parallel_inline_runs": reg["pool.parallel_inline_runs"],
        "pool.queue_depth_peak": reg["pool.queue_depth_peak"],
        "pool.cpu_util": result["cpu_seconds"] /
                         (result["phase_wall_s"] * result["compute_threads"]),
        "obs.profile_overhead_frac":
            statistics.median(traced) / statistics.median(untraced) - 1.0,
        "obs.unattributed_share": unattributed,
    }
    table = [(layer, agg["calls"], agg["excl"], agg["excl"] / total, gflops(layer))
             for layer, agg in rows.items() if agg["calls"] > 0]
    table.sort(key=lambda row: -row[2])
    table.append(("(unattributed)", 0, unattributed * total, unattributed, 0.0))
    return m, table


def print_ledger(workload: str, table: list, total_s: float):
    print(f"ledger {workload}: {total_s:.3f} s profiled")
    print(f"  {'layer':26} {'calls':>10} {'self_s':>9} {'share':>7} {'GFLOP/s':>8}")
    for layer, calls, self_s, share, gf in table:
        gf_text = f"{gf:8.3f}" if gf > 0 else " " * 8
        print(f"  {layer:26} {calls:10d} {self_s:9.3f} {share:7.1%} {gf_text}")


def metrics_of(result: dict, traced: bool, out: Path, spec: dict, workload: str) -> dict:
    """The contract metrics of one run: end-to-end, or the traced ledger."""
    if not traced:
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        return {name: {"value": result["metrics"][name], "unit": unit}
                for name, unit in names.items()}
    profile = json.loads((out / "profile.json").read_text())
    values, table = ledger(result, profile)
    print_ledger(workload, table, flatten(profile)[1])
    if values["obs.unattributed_share"] > UNATTRIBUTED_FLAG:
        print(f"FLAG {workload}: obs.unattributed_share "
              f"{values['obs.unattributed_share']:.1%} exceeds {UNATTRIBUTED_FLAG:.0%}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def one_run(binary: Path, workload: str, seed: int, seconds: float, traced: bool,
            out: Path, spec: dict, extra=()) -> tuple[int, dict]:
    """Run, compute metrics, print them; returns (exit code, summary)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    code, result = run_binary(binary, workload, seed, seconds, out / "run", traced, extra,
                              deadline - time.monotonic())
    if result is None:
        raise SystemExit(f"run.py: {workload} seed {seed} produced no result (exit {code})")
    metrics = metrics_of(result, traced, out / "run", spec, workload)
    if not traced:
        # A set-up is timed once per process, so that it pays the cold
        # caches a fresh process pays; setup_s is the median of several.
        setups = [result["metrics"]["setup_s"]]
        for k in range(1, SETUP_PROCS):
            setup_code, setup = run_binary(binary, workload, seed, seconds, out / f"setup{k}",
                                           False, (*extra, "--setup-only"),
                                           deadline - time.monotonic())
            if setup is None:
                raise SystemExit(f"run.py: {workload} seed {seed} set-up {k} produced no "
                                 f"result (exit {setup_code})")
            code = code or setup_code
            result["correct"] = result["correct"] and setup["correct"]
            setups.append(setup["metrics"]["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    extra_text = ", ".join(f"{k}={v:.4g}" for k, v in result["extra"].items())
    print(f"{workload} seed={seed} attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} digest={result['output_digest']} samples="
          f"{result['op_samples']} {extra_text}")
    lateness = result["extra"].get("gen_lateness_p99_s")
    if lateness is not None and lateness > 0.005:
        print(f"INVALID {workload}: generator lateness p99 {lateness * 1e3:.1f} ms > 5 ms")
    summary = {"workload": workload, "seed": seed, "traced": traced,
               "correct": bool(result["correct"]) and code == 0,
               "attempted": result["attempted"], "failed": result["failed"],
               "output_digest": result["output_digest"], "metrics": metrics,
               "extra": result["extra"]}
    return code, summary


# --------------------------------------------------------------------------

def contract_run(args, spec: dict) -> int:
    binary = build()
    traced = args.trace == 1
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    code, summary = one_run(binary, args.workload, args.seed, args.seconds, traced, out, spec)
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": summary["metrics"]}))
    return 0 if summary["correct"] else 1


def sets_run(args, spec: dict) -> int:
    if args.binaries:
        binaries = [Path(b).resolve() for b in args.binaries.split(",")]
        if len(binaries) != args.sets:
            raise SystemExit("run.py: --binaries needs one binary per set")
    else:
        binaries = [build()] * args.sets
    seeds = [int(s) for s in args.seeds.split(",")]
    out = Path(args.out).resolve() if args.out else OUT / "sets"
    runs: dict[int, list] = {k: [] for k in range(args.sets)}
    # Alternate the sets run by run, so drift on the host hits both alike,
    # and alternate which set runs first.
    for workload in WORKLOADS:
        for i, seed in enumerate(seeds):
            order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
            for k in order:
                run_out = out / f"set{k}" / f"{workload}-seed{seed}"
                code, summary = one_run(binaries[k], workload, seed, args.seconds, False,
                                        run_out, spec)
                if code != 0 or not summary["correct"]:
                    raise SystemExit(f"run.py: {workload} seed {seed} failed (exit {code})")
                runs[k].append(summary)
    for k, results in runs.items():
        path = out / f"set{k}" / "results.json"
        path.write_text(json.dumps({"seconds": args.seconds, "runs": results}, indent=1))
        print(f"wrote {path}")

    digests: dict[tuple, set] = {}
    for results in runs.values():
        for r in results:
            digests.setdefault((r["workload"], r["seed"]), set()).add(r["output_digest"])
    unstable = {key: d for key, d in digests.items() if len(d) != 1}
    for (workload, seed), d in sorted(unstable.items()):
        print(f"DIGEST MISMATCH {workload} seed {seed}: {sorted(d)}")
    if unstable:
        return 1
    print(f"output digests: identical across all runs of each of {len(digests)} (workload, seed)")
    if args.sets < 2:
        return 0
    same_code = ["--same-code"] if len(set(binaries)) == 1 else []
    return subprocess.run([sys.executable, str(HERE / "compare.py"), *same_code,
                           str(out / "set0" / "results.json"),
                           str(out / "set1" / "results.json")]).returncode


def smoke_test(args, spec: dict) -> int:
    binary = Path(args.binary).resolve()
    out = Path(args.out).resolve()
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        run_out = out / workload
        code, result = run_binary(binary, workload, 1, 0.5, run_out, True, ("--scale", "smoke"))
        if code != 0 or result is None or not result["correct"]:
            problems.append(f"{workload}: exit {code}")
            continue
        got_e2e = set(result["metrics"])
        got_layer = set(ledger(result, json.loads((run_out / "profile.json").read_text()))[0])
        if got_e2e != want_e2e:
            problems.append(f"{workload}: end-to-end names {sorted(got_e2e ^ want_e2e)} differ")
        if got_layer != want_layer:
            problems.append(f"{workload}: per-layer names {sorted(got_layer ^ want_layer)} differ")
        code, result = run_binary(binary, workload, 1, 0.5, out / f"{workload}-setup", False,
                                  ("--scale", "smoke", "--setup-only"))
        if code != 0 or result is None or not result["correct"] or result["attempted"] != 0:
            problems.append(f"{workload} --setup-only: exit {code}")
            continue
        print(f"{workload}: ok")
    # A served response that disagrees with its reference must fail the run.
    code, result = run_binary(binary, "serve", 1, 0.5, out / "serve-perturbed", False,
                              ("--scale", "smoke", "--perturb-reference"))
    if code == 0 or result is None or result["correct"]:
        problems.append(f"serve with a perturbed reference did not fail (exit {code})")
    else:
        print("serve with a perturbed reference: failed as it must")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=0, help="run N result sets of every workload")
    ap.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)))
    ap.add_argument("--out", default=None, help="output directory for --sets / --smoke-test")
    ap.add_argument("--smoke-test", action="store_true")
    ap.add_argument("--binary", default=None, help="bench_e2e binary for --smoke-test")
    ap.add_argument("--binaries", default=None,
                    help="with --sets: one bench_e2e binary per set, comma-separated")
    args = ap.parse_args()

    spec = load_benchmark()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke_test:
        if not args.binary or not args.out:
            ap.error("--smoke-test needs --binary and --out")
        return smoke_test(args, spec)
    if args.sets:
        return sets_run(args, spec)
    if not args.workload:
        ap.error("--workload is required")
    return contract_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
