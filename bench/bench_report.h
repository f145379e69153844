// The one obs-backed teardown shared by every bench binary (google-
// benchmark sweeps and plain-main kernels alike). It names the run after
// the binary, and when SPECTRA_RUNMETA names no file it leaves run.json
// in the working directory, so every bench run is machine-diffable
// across commits. The trace, the profile, the metrics and a
// SPECTRA_RUNMETA manifest are the obs session's: its exit writer
// writes each of them once (obs/session.h).

#pragma once

#include <string>

#include "obs/run_manifest.h"
#include "obs/session.h"

namespace spectra::bench {

// `run_name` is usually argv[0]; the basename becomes the manifest name.
inline void bench_report(const std::string& run_name) {
  std::string name = run_name;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  // The session's SPECTRA_RUNMETA manifest takes this name too.
  ::spectra::obs::run_manifest_set_name(name);
  if (::spectra::obs::session_knobs().runmeta.empty()) {
    ::spectra::obs::write_run_manifest("run.json", name);
  }
}

}  // namespace spectra::bench
