// Structured run manifests: one JSON document per bench/training run
// capturing everything needed to diff performance across commits — git
// SHA and build flags (baked in at configure time), every SPECTRA_* knob
// in the environment, wall time, the final metrics snapshot, and the
// profile tree. Any process can opt in by setting SPECTRA_RUNMETA=<path>
// (written last by the obs session's exit writer, obs/session.h); a bench
// binary without it leaves run.json through bench_report().
//
// Document shape:
//   {"name": ..., "git_sha": ..., "build_type": ..., "cxx_flags": ...,
//    "wall_seconds": ..., "env": {"SPECTRA_*": ...},
//    "extra": {...},              // run_manifest_set() key/values
//    "metrics": {...},            // Registry json_snapshot()
//    "profile": {...}}            // profile_report_json()

#pragma once

#include <string>

namespace spectra::obs {

// Attach an extra key to the manifest's "extra" object. `value` must be
// a valid JSON value (callers pass numbers as-is and quote strings via
// run_manifest_set_string). Used for run-specific facts such as the
// seed. Later calls with the same key overwrite.
void run_manifest_set(const std::string& key, const std::string& json_value);
void run_manifest_set_string(const std::string& key, const std::string& value);

// Default run name when a writer passes none — notably the session's
// SPECTRA_RUNMETA manifest, which would otherwise be named "run" in a
// bench binary. SPECTRA_RUN still takes precedence.
void run_manifest_set_name(const std::string& run_name);

// Build the manifest document. `run_name` defaults to the SPECTRA_RUN
// env value or "run" when unset.
std::string run_manifest_json(const std::string& run_name = "");

// Write run_manifest_json(run_name) to `path`.
void write_run_manifest(const std::string& path, const std::string& run_name = "");

}  // namespace spectra::obs
