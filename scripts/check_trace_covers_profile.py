#!/usr/bin/env python3
"""Check the one-probe contract on a real run (DESIGN 6e).

SG_PROFILE_SCOPE is the only probe: while tracing is on, every scope
also records a trace event under its own name. So in a run with both
SPECTRA_PROFILE=<file> and SPECTRA_TRACE=<file> set, every profile node
name must occur as a trace event name. CI feeds it the telemetry-on pass
that check_obs_overhead.py leaves in its artifacts directory.

Usage: check_trace_covers_profile.py <profile.json> <trace.json>
"""

import json
import sys


def node_names(nodes):
    for node in nodes:
        yield node["name"]
        yield from node_names(node["children"])


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        profiled = set(node_names(json.load(f)["tree"]))
    with open(sys.argv[2]) as f:
        traced = {event["name"] for event in json.load(f)}  # a SPECTRA_TRACE event array

    missing = sorted(profiled - traced)
    print(f"{len(profiled) - len(missing)} of {len(profiled)} profile node names "
          f"occur as trace events")
    if not profiled:
        sys.exit("one-probe contract FAILED: the profile is empty")
    if missing:
        sys.exit("one-probe contract FAILED: not in the trace: " + ", ".join(missing))


if __name__ == "__main__":
    main()
