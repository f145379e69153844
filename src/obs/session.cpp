#include "obs/session.h"

#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/run_manifest.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace spectra::obs {

namespace {

// The value of the knob `name`; unset reads as empty, and empty is off.
std::string knob(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : "";
}

SessionKnobs read_knobs() {
  SessionKnobs knobs;
  knobs.trace = knob("SPECTRA_TRACE");
  const std::string profile = knob("SPECTRA_PROFILE");
  knobs.profile = !profile.empty() && profile != "0" && profile != "false";
  if (knobs.profile && profile != "1" && profile != "true") knobs.profile_json = profile;
  knobs.metrics = knob("SPECTRA_METRICS");
  knobs.runmeta = knob("SPECTRA_RUNMETA");
  const long sample_ms = std::strtol(knob("SPECTRA_SAMPLE_MS").c_str(), nullptr, 10);
  knobs.sample_ms = sample_ms > 0 ? sample_ms : 0;
  return knobs;
}

// The exit writer, in the order session.h states.
void finish_session() {
  const SessionKnobs& knobs = session_knobs();
  if (knobs.sample_ms > 0) ResourceSampler::instance().stop();
  if (!knobs.trace.empty()) trace_stream_close();
  if (knobs.profile) {
    std::fputs(profile_report_text().c_str(), stderr);
    if (!knobs.profile_json.empty()) profile_dump(knobs.profile_json);
  }
  if (!knobs.metrics.empty()) dump_metrics(knobs.metrics);
  if (!knobs.runmeta.empty()) write_run_manifest(knobs.runmeta);
}

}  // namespace

const SessionKnobs& session_knobs() {
  static const SessionKnobs knobs = read_knobs();
  return knobs;
}

namespace detail {

void start_session() {
  const SessionKnobs& knobs = session_knobs();
  if (!knobs.trace.empty()) {
    trace_set_enabled(true);
    trace_stream_open(knobs.trace);
  }
  if (knobs.profile) profile_set_enabled(true);
  if (knobs.sample_ms > 0) ResourceSampler::instance().start(knobs.sample_ms);
  std::atexit(finish_session);
}

}  // namespace detail

}  // namespace spectra::obs
