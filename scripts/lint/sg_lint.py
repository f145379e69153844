#!/usr/bin/env python3
"""sg_lint — repo-specific invariant linter for the SpectraGAN reproduction.

Enforces invariants that no off-the-shelf tool knows about (DESIGN §6d):

  thread        No std::thread / std::async / raw pthread outside
                util/thread_pool.  All parallelism must go through the
                shared pool so SPECTRA_THREADS, nested-inline execution,
                and the TSan matrix keep their guarantees.
  determinism   No std::rand / random_device / wall-clock time sources in
                src/{core,nn,dsp,train}.  Training must be a pure function
                of (seed, data, SPECTRA_THREADS-independent kernels);
                silent nondeterminism is the top reproducibility failure
                reported by GAN codebases (see PAPERS.md, DoppelGANger).
  registry      Every "SPECTRA_*" env knob and every metrics-registry name
                used in code must appear in the DESIGN.md knob/metric
                tables, and vice versa — the docs are a registry, not
                prose, and the two may not drift.
  mutable-static  No mutable static / thread_local state outside the
                audited allowlist below.  Hidden process state breaks the
                checkpoint bitwise-resume contract and the 1-vs-8-thread
                equality suite.
  float-mix     Kernel files accumulate in float only: any use of
                `double` must be an explicit static_cast<double> (e.g. at
                the observability boundary).  Implicit float<->double
                mixing changes results between vectorized and scalar
                paths, which breaks bitwise determinism.
  lock-annotation  Every concurrency primitive in src/ is visible to the
                clang thread safety analysis: raw std::mutex /
                std::shared_mutex / std::condition_variable may only
                appear inside the annotated wrappers (util/mutex.h, via
                the identifier-exact allowlist below), and every
                spectra::Mutex / SharedMutex declaration must place
                itself in the lock hierarchy with SG_ACQUIRED_AFTER /
                SG_ACQUIRED_BEFORE (or be allowlisted, e.g. the
                hierarchy's own root token).
  include-layering  Cross-module #include edges in src/ must point
                strictly down the module DAG (INCLUDE_LAYERS below).  A
                back-edge means a layering inversion that the linker
                ordering and the capability hierarchy both assume away.

A finding can be waived inline with a justified annotation on the same
line (or the line above):

    // sg-lint: allow(<rule>) <reason>

The reason is mandatory; an annotation without one is itself an error.

Usage:
  sg_lint.py                      lint the repository (src/ bench/ examples/)
  sg_lint.py FILE --as REL        lint FILE as if it lived at repo path REL
                                  (how the fixture suite exercises rules)
  sg_lint.py --design FILE        use FILE instead of DESIGN.md for the
                                  registry tables
  sg_lint.py --list-rules         print rule ids and exit

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

RULES = ("thread", "determinism", "registry", "mutable-static", "float-mix",
         "lock-annotation", "include-layering")

# ---------------------------------------------------------------------------
# Scope of each rule (repo-relative, forward slashes).

# Everything the thread / mutable-static rules see.
SRC_GLOBS = ("src/**/*.cpp", "src/**/*.h")
# The registry rule also scans drivers, which read knobs directly.
CODE_GLOBS = SRC_GLOBS + ("bench/**/*.cpp", "bench/**/*.h",
                          "examples/**/*.cpp", "examples/**/*.h")

THREAD_EXEMPT = ("src/util/thread_pool.cpp", "src/util/thread_pool.h",
                 # resource sampler: the one sanctioned non-pool thread —
                 # it only reads /proc and stores into registry atomics
                 "src/obs/sampler.cpp", "src/obs/sampler.h")
DETERMINISM_DIRS = ("src/core/", "src/nn/", "src/dsp/", "src/train/")
# Files holding the numeric kernels whose bitwise output the parallel and
# checkpoint suites pin down.
KERNEL_FILES = ("src/nn/gemm.cpp", "src/nn/conv.cpp", "src/nn/gemm_micro.h",
                "src/nn/gemm_kernels_avx2.cpp", "src/nn/gemm_kernels_avx512.cpp")

# Audited mutable static state: "<repo-relative-file>:<identifier>".
# Every entry must say why it is safe.  Registry instrument lookups
# (`static obs::Counter& ...`) are allowed by pattern, not listed here.
MUTABLE_STATIC_ALLOWLIST = {
    # Logger: level cache is a relaxed atomic seeded from the environment
    # on first use (the sink mutex is a namespace-scope annotated Mutex).
    "src/util/log.cpp:level",
    # Parallel-region flag: per-thread marker that enables nested-inline
    # execution; written only by the owning thread.
    "src/util/thread_pool.cpp:tls_in_region",
    # GEMM scratch routing: per-thread pointer to the bound Workspace,
    # written only by the owning thread via WorkspaceScope (serve daemon
    # binds request-owned arenas); and the per-thread default arena set —
    # grow-only, zero steady-state allocation contract asserted by
    # gemm_test via gemm.workspace_grows.
    "src/nn/gemm.cpp:tls_workspace",
    "src/nn/gemm.cpp:tls_default_workspace",
    # Inference-mode flag: per-thread autograd switch (InferenceGuard).
    "src/nn/autograd.cpp:g_inference_mode",
    # Metrics registry singleton: append-only registration behind a mutex.
    "src/obs/metrics.cpp:registry",
    # Trace state: leaked singleton + per-thread span buffers by design
    # (worker threads may outlive main during exit).
    "src/obs/trace.cpp:s",
    "src/obs/trace.cpp:buffer",
    # FFT plan caches (one PlanCache per plan type): annotated SharedMutex
    # + GUARDED_BY plan list; plans are immutable after construction
    # (§6a/§6d). Transform work buffers are per call, not static.
    "src/dsp/fft.cpp:plan_cache",
    # SIMD dispatch selection: written once on first kernel use (or by
    # the test-only set_simd_level override), then read lock-free by the
    # GEMM, activation and FFT kernel tables. The level never changes
    # results — every level is bitwise identical (gemm_micro.h,
    # fft_kernels.h) — so this is a throughput knob, not hidden numerical
    # state.
    "src/util/simd.cpp:g_active",
}

# Sanctioned concurrency-primitive declarations:
# "<repo-relative-file>:<identifier>".  Two kinds of entry:
#   - raw std primitives: util/mutex.h wrapper internals are the ONLY
#     sanctioned home — everywhere else must use the annotated wrappers
#     so the clang thread safety analysis sees every acquire/release;
#   - wrapper declarations exempt from the SG_ACQUIRED_AFTER/BEFORE
#     hierarchy requirement (the hierarchy's own sentinel tokens).
LOCK_PRIMITIVE_ALLOWLIST = {
    # Wrapper internals (util/mutex.h): the audited raw primitives that
    # everything else delegates to.
    "src/util/mutex.h:raw_mutex_",
    "src/util/mutex.h:raw_shared_mutex_",
    "src/util/mutex.h:raw_cv_",
    # Hierarchy root token: the outermost layer has nothing to be
    # acquired after, so its declaration carries no SG_ACQUIRED_*.
    "src/util/mutex.h:serve",
    # Sentinel token definitions: the hierarchy attributes live on the
    # extern declarations in mutex.h; the definitions are plain.
    "src/util/mutex.cpp:serve",
    "src/util/mutex.cpp:pool",
    "src/util/mutex.cpp:obs",
    "src/util/mutex.cpp:fft_cache",
    "src/util/mutex.cpp:log",
}

# Module DAG for the include-layering rule: src/<module>/... may include
# another module only if its own rank is STRICTLY greater (includes point
# down the stack; same-module includes are always fine). `pool` is a
# pseudo-module for src/util/thread_pool.* (see FILE_MODULE_OVERRIDES):
# the pool instruments itself through obs, while the rest of util sits
# below obs — splitting it keeps both facts in the DAG instead of
# collapsing them into a util<->obs cycle. Mirrors the link order in
# src/CMakeLists.txt and the capability layers in DESIGN §6d.
INCLUDE_LAYERS = {
    "util": 0,
    "obs": 1,
    "pool": 2,
    "nn": 3, "dsp": 3, "geo": 3,
    "train": 4, "data": 4, "metrics": 4,
    "core": 5,
    "apps": 6, "baselines": 6,
    "eval": 7, "serve": 7,
}
FILE_MODULE_OVERRIDES = {
    "src/util/thread_pool.h": "pool",
    "src/util/thread_pool.cpp": "pool",
}

# Counters surfaced by --stats (CI thread-safety job summary).
LOCK_STATS = {"annotated": 0, "allowlisted": 0}

# ---------------------------------------------------------------------------

ALLOW_RE = re.compile(r"//\s*sg-lint:\s*allow\(([a-z-]+)\)\s*(.*)")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def parse_allows(lines: list[str], findings: list[Finding], path: str):
    """Map line number -> set of waived rules (annotation covers its own
    line and the line directly below, so decl-above style works)."""
    allows: dict[int, set[str]] = {}
    for i, text in enumerate(lines, start=1):
        m = ALLOW_RE.search(text)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if rule not in RULES:
            findings.append(Finding(path, i, "annotation",
                                    f"unknown rule '{rule}' in sg-lint allow"))
            continue
        if not reason:
            findings.append(Finding(path, i, "annotation",
                                    "sg-lint allow() requires a justification "
                                    "after the closing parenthesis"))
            continue
        allows.setdefault(i, set()).add(rule)
        allows.setdefault(i + 1, set()).add(rule)
    return allows


def strip_strings_and_comments(text: str) -> str:
    """Blank out string/char literals and comments, preserving line
    structure, so token rules don't fire on quoted text or prose."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif mode in ("str", "chr"):
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
            out.append("\n" if c == "\n" else " ")
        elif mode == "line":
            if c == "\n":
                mode = "code"
            out.append("\n" if c == "\n" else " ")
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Per-file rules.

THREAD_RE = re.compile(r"\bstd::(thread|jthread|async|launch)\b|\bpthread_\w+")

DETERMINISM_RE = re.compile(
    r"\bstd::rand\b|\brandom_device\b|\bsystem_clock\b|\bgettimeofday\b"
    r"|(?<![\w:.>])time\s*\(")

STATIC_DECL_RE = re.compile(r"^\s*(?:inline\s+)?(?:static|thread_local)\b(?!_)")
STATIC_OK_RE = re.compile(
    r"static_assert|static_cast"
    r"|\bconst\b|\bconstexpr\b|\bconsteval\b|\bconstinit\b"
    # registry instrument lookups: thread-safe, append-only handles
    r"|static\s+obs::(Counter|Gauge|MaxGauge|Histogram)&")
STATIC_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:=|;|\{)")

DOUBLE_RE = re.compile(r"\bdouble\b")
DOUBLE_CAST_RE = re.compile(r"static_cast<\s*(?:long\s+)?double\s*>")

RAW_LOCK_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable"
    r"|condition_variable_any)\s+([A-Za-z_]\w*)")
WRAPPED_LOCK_RE = re.compile(r"\b(?:spectra::)?(Mutex|SharedMutex)\s+([A-Za-z_]\w*)")
LOCK_HIER_RE = re.compile(r"\bSG_ACQUIRED_(?:AFTER|BEFORE)\b")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def gather_decl(code_lines: list[str], lineno: int, limit: int = 5) -> str:
    """Join the declaration starting at 1-based `lineno` through its
    terminating ';' (bounded lookahead) so hierarchy annotations on
    continuation lines are seen."""
    parts = []
    for j in range(lineno - 1, min(lineno - 1 + limit, len(code_lines))):
        parts.append(code_lines[j])
        if ";" in code_lines[j]:
            break
    return " ".join(parts)


def lint_file(disk_path: Path, rel: str, findings: list[Finding]):
    try:
        text = disk_path.read_text()
    except OSError as e:
        findings.append(Finding(str(disk_path), 0, "io", str(e)))
        return
    raw_lines = text.splitlines()
    allows = parse_allows(raw_lines, findings, rel)
    code_lines = strip_strings_and_comments(text).splitlines()

    def report(lineno: int, rule: str, message: str):
        if rule in allows.get(lineno, set()):
            return
        findings.append(Finding(rel, lineno, rule, message))

    rel_posix = rel.replace("\\", "/")

    if rel_posix.startswith("src/") and rel_posix not in THREAD_EXEMPT:
        for i, line in enumerate(code_lines, start=1):
            m = THREAD_RE.search(line)
            if m:
                report(i, "thread",
                       f"'{m.group(0)}' outside util/thread_pool — use "
                       "spectra::parallel_for / the shared pool")

    if rel_posix.startswith(DETERMINISM_DIRS):
        for i, line in enumerate(code_lines, start=1):
            m = DETERMINISM_RE.search(line)
            if m:
                report(i, "determinism",
                       f"nondeterministic source '{m.group(0).strip()}' in a "
                       "core path — derive randomness from spectra::Rng and "
                       "timing from util/stopwatch")

    if rel_posix.startswith("src/"):
        for i, line in enumerate(code_lines, start=1):
            if not STATIC_DECL_RE.search(line):
                continue
            if STATIC_OK_RE.search(line):
                continue
            decl = STATIC_DECL_RE.sub("", line, count=1).strip()
            # function (or member-function) declarations are not state
            if re.match(r"^[\w:<>,*&~\s]*[A-Za-z_]\w*\s*\(", decl):
                continue
            name_m = STATIC_NAME_RE.search(decl)
            name = name_m.group(1) if name_m else "?"
            if f"{rel_posix}:{name}" in MUTABLE_STATIC_ALLOWLIST:
                continue
            report(i, "mutable-static",
                   f"mutable static/thread_local '{name}' is not in the "
                   "audited allowlist (scripts/lint/sg_lint.py) — hidden "
                   "process state breaks checkpoint-resume and thread-count "
                   "invariance")

    if rel_posix in KERNEL_FILES:
        for i, line in enumerate(code_lines, start=1):
            stripped_casts = DOUBLE_CAST_RE.sub("", line)
            if DOUBLE_RE.search(stripped_casts):
                report(i, "float-mix",
                       "bare 'double' in a kernel file — kernels accumulate "
                       "in float; cross the precision boundary only via an "
                       "explicit static_cast<double>")

    if rel_posix.startswith("src/"):
        for i, line in enumerate(code_lines, start=1):
            m = RAW_LOCK_RE.search(line)
            if m:
                name = m.group(2)
                if f"{rel_posix}:{name}" in LOCK_PRIMITIVE_ALLOWLIST:
                    LOCK_STATS["allowlisted"] += 1
                else:
                    report(i, "lock-annotation",
                           f"raw std::{m.group(1)} '{name}' — use the "
                           "annotated spectra::Mutex/SharedMutex/CondVar "
                           "(util/mutex.h) so the clang thread safety "
                           "analysis sees every acquire, or add an "
                           "identifier-exact allowlist entry in "
                           "scripts/lint/sg_lint.py")
                continue
            m = WRAPPED_LOCK_RE.search(line)
            if m:
                name = m.group(2)
                if f"{rel_posix}:{name}" in LOCK_PRIMITIVE_ALLOWLIST:
                    LOCK_STATS["allowlisted"] += 1
                elif LOCK_HIER_RE.search(gather_decl(code_lines, i)):
                    LOCK_STATS["annotated"] += 1
                else:
                    report(i, "lock-annotation",
                           f"{m.group(1)} '{name}' declares no lock-hierarchy "
                           "position — add SG_ACQUIRED_AFTER(<own layer>) and "
                           "SG_ACQUIRED_BEFORE(<next layer>) using the "
                           "lock_order tokens (util/mutex.h; layer table in "
                           "DESIGN §6d), or allowlist it in "
                           "scripts/lint/sg_lint.py")

    if rel_posix.startswith("src/"):
        file_mod = FILE_MODULE_OVERRIDES.get(rel_posix)
        if file_mod is None:
            parts = rel_posix.split("/")
            file_mod = parts[1] if len(parts) >= 3 else None
        file_rank = INCLUDE_LAYERS.get(file_mod)
        if file_rank is not None:
            # scan RAW lines: include paths live inside string literals,
            # which strip_strings_and_comments blanks out
            for i, line in enumerate(raw_lines, start=1):
                m = INCLUDE_RE.match(line)
                if not m:
                    continue
                inc = m.group(1)
                inc_mod = FILE_MODULE_OVERRIDES.get("src/" + inc)
                if inc_mod is None:
                    inc_mod = inc.split("/")[0]
                if inc_mod == file_mod:
                    continue
                inc_rank = INCLUDE_LAYERS.get(inc_mod)
                if inc_rank is None:
                    continue  # generated headers, non-module paths
                if file_rank > inc_rank:
                    continue
                report(i, "include-layering",
                       f"module '{file_mod}' (rank {file_rank}) includes "
                       f"'{inc}' from module '{inc_mod}' (rank {inc_rank}) — "
                       "cross-module includes must point strictly down the "
                       "module DAG (INCLUDE_LAYERS, DESIGN §6d); a back-edge "
                       "re-introduces a dependency cycle")


# ---------------------------------------------------------------------------
# Registry rule (whole-repo).

KNOB_LITERAL_RE = re.compile(r'"(SPECTRA_[A-Z][A-Z0-9_]*)"')
METRIC_CALL_RE = re.compile(r'\b(?:counter|gauge|max_gauge|histogram)\(\s*"([a-z0-9_.]+)"')
TABLE_TOKEN_RE = re.compile(r"`([^`]+)`")

KNOB_BEGIN = "<!-- sg-lint:knob-table-begin -->"
KNOB_END = "<!-- sg-lint:knob-table-end -->"
METRIC_BEGIN = "<!-- sg-lint:metric-table-begin -->"
METRIC_END = "<!-- sg-lint:metric-table-end -->"


def extract_table_tokens(design_text: str, begin: str, end: str,
                         token_filter) -> set[str] | None:
    start = design_text.find(begin)
    stop = design_text.find(end)
    if start < 0 or stop < 0 or stop < start:
        return None
    block = design_text[start:stop]
    tokens = set()
    for raw in TABLE_TOKEN_RE.findall(block):
        tok = token_filter(raw)
        if tok:
            tokens.add(tok)
    return tokens


def knob_filter(raw: str) -> str | None:
    m = re.match(r"(SPECTRA_[A-Z][A-Z0-9_]*)", raw)
    return m.group(1) if m else None


def metric_filter(raw: str) -> str | None:
    return raw if re.fullmatch(r"[a-z0-9_]+(\.[a-z0-9_]+)+", raw) else None


def lint_registry(code_files: list[tuple[Path, str]], design_path: Path,
                  findings: list[Finding]):
    design_rel = str(design_path)
    try:
        design_text = design_path.read_text()
    except OSError as e:
        findings.append(Finding(design_rel, 0, "registry", str(e)))
        return

    doc_knobs = extract_table_tokens(design_text, KNOB_BEGIN, KNOB_END, knob_filter)
    doc_metrics = extract_table_tokens(design_text, METRIC_BEGIN, METRIC_END,
                                       metric_filter)
    if doc_knobs is None:
        findings.append(Finding(design_rel, 0, "registry",
                                f"missing {KNOB_BEGIN} / {KNOB_END} markers"))
        return
    if doc_metrics is None:
        findings.append(Finding(design_rel, 0, "registry",
                                f"missing {METRIC_BEGIN} / {METRIC_END} markers"))
        return

    used_knobs: dict[str, tuple[str, int]] = {}
    used_metrics: dict[str, tuple[str, int]] = {}
    for disk_path, rel in code_files:
        try:
            text = disk_path.read_text()
        except OSError:
            continue
        # knobs/metrics live in string literals, so scan the raw text
        for i, line in enumerate(text.splitlines(), start=1):
            if "sg-lint: allow(registry)" in line:
                continue
            for m in KNOB_LITERAL_RE.finditer(line):
                used_knobs.setdefault(m.group(1), (rel, i))
            for m in METRIC_CALL_RE.finditer(line):
                used_metrics.setdefault(m.group(1), (rel, i))

    for knob, (rel, line) in sorted(used_knobs.items()):
        if knob not in doc_knobs:
            findings.append(Finding(rel, line, "registry",
                                    f"env knob '{knob}' is read here but missing "
                                    f"from the DESIGN.md knob table"))
    for knob in sorted(doc_knobs - set(used_knobs)):
        findings.append(Finding(design_rel, 0, "registry",
                                f"knob table documents '{knob}' but no code "
                                f"reads it"))
    for metric, (rel, line) in sorted(used_metrics.items()):
        if metric not in doc_metrics:
            findings.append(Finding(rel, line, "registry",
                                    f"metric '{metric}' is registered here but "
                                    f"missing from the DESIGN.md metric table"))
    for metric in sorted(doc_metrics - set(used_metrics)):
        findings.append(Finding(design_rel, 0, "registry",
                                f"metric table documents '{metric}' but no "
                                f"code registers it"))


# ---------------------------------------------------------------------------

def repo_code_files(root: Path, globs) -> list[tuple[Path, str]]:
    files = []
    for pattern in globs:
        for p in sorted(root.glob(pattern)):
            files.append((p, p.relative_to(root).as_posix()))
    return files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", help="explicit files to lint")
    ap.add_argument("--as", dest="as_path", metavar="REL",
                    help="treat the single FILE argument as this repo-relative path")
    ap.add_argument("--design", type=Path, default=None,
                    help="DESIGN.md override (fixtures)")
    ap.add_argument("--root", type=Path, default=REPO_ROOT,
                    help="repository root (default: auto)")
    ap.add_argument("--no-registry", action="store_true",
                    help="skip the whole-repo registry rule")
    ap.add_argument("--stats", action="store_true",
                    help="print lock-annotation coverage counts after linting")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        print("\n".join(RULES))
        return 0

    root = args.root.resolve()
    findings: list[Finding] = []

    if args.as_path and len(args.files) != 1:
        print("--as requires exactly one FILE argument", file=sys.stderr)
        return 2

    if args.files:
        for f in args.files:
            disk = Path(f)
            rel = args.as_path if args.as_path else \
                disk.resolve().relative_to(root).as_posix()
            lint_file(disk, rel, findings)
        if args.design is not None:
            lint_registry([(Path(f), args.as_path or f) for f in args.files],
                          args.design, findings)
    else:
        code_files = repo_code_files(root, CODE_GLOBS)
        for disk, rel in code_files:
            lint_file(disk, rel, findings)
        if not args.no_registry:
            lint_registry(code_files, args.design or root / "DESIGN.md", findings)

    for f in findings:
        print(f)
    if args.stats:
        print(f"lock-annotation: {LOCK_STATS['annotated']} hierarchy-annotated "
              f"primitive(s), {LOCK_STATS['allowlisted']} allowlisted "
              f"declaration(s)")
    if findings:
        print(f"sg_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
