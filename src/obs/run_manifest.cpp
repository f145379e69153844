#include "obs/run_manifest.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

#if __has_include("obs/build_info.h")
#include "obs/build_info.h"
#endif

// Fallbacks for builds that bypass the CMake configure step.
#ifndef SG_BUILD_GIT_SHA
#define SG_BUILD_GIT_SHA "unknown"
#endif
#ifndef SG_BUILD_TYPE
#define SG_BUILD_TYPE "unknown"
#endif
#ifndef SG_BUILD_CXX_FLAGS
#define SG_BUILD_CXX_FLAGS ""
#endif

#if defined(__linux__)
#include <unistd.h>
extern char** environ;
#endif

namespace spectra::obs {

namespace {

// Wall time origin: this file's static initialization. The session's
// exit writer links this file into every binary that links obs, so
// that is effectively process start.
const std::chrono::steady_clock::time_point g_origin = std::chrono::steady_clock::now();

struct ExtraState {
  Mutex mutex SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  std::map<std::string, std::string> values SG_GUARDED_BY(mutex);  // key -> raw JSON value
};

ExtraState& extras() {
  // sg-lint: allow(mutable-static) leaked manifest extras; read by the exit writer
  static ExtraState* s = new ExtraState();
  return *s;
}

// Default run name set by bench_report() et al., consulted when a writer
// (notably the session's SPECTRA_RUNMETA manifest) passes no explicit name.
struct NameState {
  Mutex mutex SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  std::string name SG_GUARDED_BY(mutex);
};

NameState& default_name() {
  // sg-lint: allow(mutable-static) leaked default run name; read by the exit writer
  static NameState* s = new NameState();
  return *s;
}

// Every SPECTRA_* variable in the environment, sorted by the map.
std::map<std::string, std::string> spectra_env() {
  std::map<std::string, std::string> env;
#if defined(__linux__)
  for (char** entry = environ; entry != nullptr && *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "SPECTRA_", 8) != 0) continue;
    const char* eq = std::strchr(*entry, '=');
    if (eq == nullptr) continue;
    env.emplace(std::string(*entry, static_cast<std::size_t>(eq - *entry)),
                std::string(eq + 1));
  }
#endif
  return env;
}

}  // namespace

void run_manifest_set(const std::string& key, const std::string& json_value) {
  ExtraState& s = extras();
  MutexLock lock(s.mutex);
  s.values[key] = json_value;
}

void run_manifest_set_string(const std::string& key, const std::string& value) {
  run_manifest_set(key, "\"" + json_escape(value) + "\"");
}

void run_manifest_set_name(const std::string& run_name) {
  NameState& s = default_name();
  MutexLock lock(s.mutex);
  s.name = run_name;
}

std::string run_manifest_json(const std::string& run_name) {
  std::string name = run_name;
  if (name.empty()) {
    const char* env = std::getenv("SPECTRA_RUN");
    if (env != nullptr && env[0] != '\0') {
      name = env;
    } else {
      NameState& s = default_name();
      MutexLock lock(s.mutex);
      name = s.name.empty() ? "run" : s.name;
    }
  }
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - g_origin;

  std::ostringstream out;
  out << "{\"name\":\"" << json_escape(name) << "\",\"git_sha\":\""
      << json_escape(SG_BUILD_GIT_SHA) << "\",\"build_type\":\""
      << json_escape(SG_BUILD_TYPE) << "\",\"cxx_flags\":\""
      << json_escape(SG_BUILD_CXX_FLAGS) << "\",\"wall_seconds\":"
      << format_double(wall.count()) << ",\"env\":{";
  bool first = true;
  for (const auto& [key, value] : spectra_env()) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(key) << "\":\"" << json_escape(value) << '"';
  }
  out << "},\"extra\":{";
  {
    ExtraState& s = extras();
    MutexLock lock(s.mutex);
    first = true;
    for (const auto& [key, value] : s.values) {
      if (!first) out << ',';
      first = false;
      out << '"' << json_escape(key) << "\":" << value;
    }
  }
  out << "},\"metrics\":" << Registry::instance().json_snapshot()
      << ",\"profile\":" << profile_report_json() << '}';
  return out.str();
}

void write_run_manifest(const std::string& path, const std::string& run_name) {
  std::ofstream out(path);
  if (!out) return;
  out << run_manifest_json(run_name) << '\n';
}

}  // namespace spectra::obs
