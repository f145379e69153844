// The obs session: the one place the telemetry knobs are read, and the
// one exit writer that finishes what they start.
//
// Before main, in every binary that links obs, the session reads
// SPECTRA_TRACE, SPECTRA_PROFILE, SPECTRA_METRICS, SPECTRA_RUNMETA and
// SPECTRA_SAMPLE_MS once and starts what they ask for: the trace stream,
// the profiler and the resource sampler. It registers one std::atexit
// writer, which finishes the outputs in this order, each step once:
//   1. stop the sampler, so no tick lands after the snapshots;
//   2. close the trace stream, so its closing drain is counted;
//   3. print the profile tree to stderr and write its JSON;
//   4. write the metrics snapshot;
//   5. write the run manifest, which embeds the metrics and the profile.
//
// Value rule: an unset or empty knob is off. SPECTRA_PROFILE is also off
// at `0` or `false`; `1` or `true` turn the profiler on with no file, and
// any other value is the path of its JSON tree. SPECTRA_SAMPLE_MS is off
// unless it is a positive number of milliseconds.

#pragma once

#include <string>

namespace spectra::obs {

// The knobs as the session read them; an empty path is off.
struct SessionKnobs {
  std::string trace;         // SPECTRA_TRACE: the trace stream's file
  bool profile = false;      // SPECTRA_PROFILE: the tree to stderr at exit
  std::string profile_json;  // SPECTRA_PROFILE as a path: the tree as JSON
  std::string metrics;       // SPECTRA_METRICS: the registry snapshot
  std::string runmeta;       // SPECTRA_RUNMETA: the run manifest
  long sample_ms = 0;        // SPECTRA_SAMPLE_MS: sampler period, 0 = off
};

const SessionKnobs& session_knobs();

namespace detail {
// Start what the knobs ask for and register the exit writer. Called
// once, by the initializer in metrics.cpp.
void start_session();
}  // namespace detail

}  // namespace spectra::obs
