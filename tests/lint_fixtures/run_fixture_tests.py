#!/usr/bin/env python3
"""Fixture suite for scripts/lint/sg_lint.py (ctest label: lint).

Each sg_lint rule ships with a fixture that MUST trigger it and a clean
twin that MUST pass.  Fixtures are linted *as if* they lived at a path
inside the rule's scope (``--as``), so they never touch the real tree and
are never compiled.  The registry pair runs against a miniature design
document (``--design``) so the table-sync rule is exercised in both
directions without depending on the real DESIGN.md contents.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
LINTER = REPO / "scripts" / "lint" / "sg_lint.py"
FIXTURE_DESIGN = HERE / "registry_design.md"

# (fixture, lint-as path, extra args, expected exit, substrings required
#  in stdout — empty list means the run must be silent and clean)
CASES = [
    ("thread_bad.cpp", "src/core/fixture.cpp", [], 1, ["[thread]"]),
    ("thread_ok.cpp", "src/core/fixture.cpp", [], 0, []),
    ("determinism_bad.cpp", "src/train/fixture.cpp", [], 1,
     ["[determinism]", "random_device", "system_clock", "time"]),
    ("determinism_ok.cpp", "src/train/fixture.cpp", [], 0, []),
    ("static_bad.cpp", "src/geo/fixture.cpp", [], 1,
     ["[mutable-static]", "g_call_count", "tls_hits"]),
    ("static_ok.cpp", "src/geo/fixture.cpp", [], 0, []),
    # Dispatch-selection allowlist: only the audited identifier passes in
    # the dispatch TU; anything else still fires.
    ("dispatch_static_bad.cpp", "src/util/simd.cpp", [], 1,
     ["[mutable-static]", "g_rogue"]),
    ("dispatch_static_ok.cpp", "src/util/simd.cpp", [], 0, []),
    ("floatmix_bad.cpp", "src/nn/gemm.cpp", [], 1, ["[float-mix]"]),
    ("floatmix_ok.cpp", "src/nn/gemm.cpp", [], 0, []),
    ("registry_bad.cpp", "src/obs/fixture.cpp",
     ["--design", str(FIXTURE_DESIGN)], 1,
     ["[registry]", "SPECTRA_BOGUS", "bogus.metric",
      "SPECTRA_DOCUMENTED", "documented.metric"]),
    ("registry_ok.cpp", "src/obs/fixture.cpp",
     ["--design", str(FIXTURE_DESIGN)], 0, []),
    ("annotation_bad.cpp", "src/core/fixture.cpp", [], 1,
     ["[annotation]", "justification"]),
    ("annotation_ok.cpp", "src/core/fixture.cpp", [], 0, []),
    ("lock_bad.cpp", "src/serve/fixture.cpp", [], 1,
     ["[lock-annotation]", "m_raw", "cv_", "m_plain"]),
    ("lock_ok.cpp", "src/serve/fixture.cpp", [], 0, []),
    ("layering_bad.cpp", "src/util/fixture.cpp", [], 1,
     ["[include-layering]", "serve/server.h"]),
    ("layering_ok.cpp", "src/serve/fixture.cpp", [], 0, []),
]


def run_case(fixture: str, as_path: str, extra: list[str],
             want_exit: int, want_out: list[str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(LINTER), str(HERE / fixture), "--as", as_path,
         *extra],
        capture_output=True, text=True)
    errors = []
    if proc.returncode != want_exit:
        errors.append(f"exit {proc.returncode}, expected {want_exit}\n"
                      f"stdout: {proc.stdout}stderr: {proc.stderr}")
    for needle in want_out:
        if needle not in proc.stdout:
            errors.append(f"missing {needle!r} in output:\n{proc.stdout}")
    if not want_out and proc.stdout.strip():
        errors.append(f"expected clean output, got:\n{proc.stdout}")
    return [f"{fixture}: {e}" for e in errors]


def main() -> int:
    covered = set()
    failures = []
    for fixture, as_path, extra, want_exit, want_out in CASES:
        failures.extend(run_case(fixture, as_path, extra, want_exit, want_out))
        for needle in want_out:
            if needle.startswith("[") and needle.endswith("]"):
                covered.add(needle[1:-1])

    # Guard against the suite silently losing coverage when rules are added.
    rules = subprocess.run(
        [sys.executable, str(LINTER), "--list-rules"],
        capture_output=True, text=True, check=True).stdout.split()
    missing = [r for r in rules if r not in covered]
    if missing:
        failures.append(f"no failing fixture covers rule(s): {missing}")

    if failures:
        print(f"{len(failures)} fixture failure(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"{len(CASES)} fixture cases passed; "
          f"rules covered: {sorted(covered)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
