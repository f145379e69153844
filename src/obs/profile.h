// The one probe: nestable RAII scopes that feed both the hierarchical
// wall-clock profiler and the Chrome trace (obs/trace.h). The profiler
// aggregates scopes into a per-thread parent→child timing tree (call
// counts, inclusive nanoseconds, and attributed flop/byte work), merged
// across threads at report time; the trace records each scope as one
// complete event under the same name.
//
// Both outputs are off by default and share one enable word. The obs
// session (obs/session.h) turns them on from SPECTRA_PROFILE and
// SPECTRA_TRACE before main and finishes them at exit; tests toggle them
// with profile_set_enabled() / trace_set_enabled(). With both off,
// SG_PROFILE_SCOPE costs one relaxed atomic load and a branch; with
// either on, one clock read at entry and one at exit serve both.
//
//   void d_step() {
//     SG_PROFILE_SCOPE("train/d_step");
//     ...
//   }
//
// Kernels attribute work to the innermost open scope on their thread with
// profile_add_work(flops, bytes); the report derives GFLOP/s and
// arithmetic intensity (flops/byte) per node from it. Work is attributed
// to the node where it is reported, not summed up the tree — a conv node
// and the gemm node nested under it each carry their own accounting.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace spectra::obs {

namespace detail {
// The enable word: bit kProfileBit drives the profile tree, bit
// kTraceBit the trace. One word so a scope with both off stays one load.
inline constexpr unsigned kProfileBit = 1;
inline constexpr unsigned kTraceBit = 2;
extern std::atomic<unsigned> g_probes;

// Turn one output's bit on or off.
void set_probe(unsigned bit, bool enabled);

struct ProfileNode;

// Steady-clock nanoseconds: the one clock both probe outputs read.
std::int64_t steady_now_ns();
}  // namespace detail

inline bool profile_enabled() {
  return (detail::g_probes.load(std::memory_order_relaxed) & detail::kProfileBit) != 0;
}

// Runtime toggle (the session flips it on from SPECTRA_PROFILE).
void profile_set_enabled(bool enabled);

// Attribute `flops` floating-point operations and `bytes` of memory
// traffic to the innermost open scope on this thread. No-op when
// profiling is disabled or no scope is open.
void profile_add_work(double flops, double bytes);

// Aligned text tree: one row per node with calls, inclusive/exclusive
// seconds, GFLOP/s and arithmetic intensity where work was attributed.
// Per-thread trees are merged by path; scopes entered on pool workers
// appear as their own top-level subtrees.
std::string profile_report_text();

// The same tree as a JSON document:
//   {"wall_seconds": W, "tree": [{"name", "calls", "incl_seconds",
//    "excl_seconds", "flops", "bytes", "children": [...]}, ...]}
std::string profile_report_json();

// Write profile_report_json() to `path`.
void profile_dump(const std::string& path);

// Discard every recorded node and restart the wall-clock origin. Only
// safe while no scopes are open. Tests only.
void profile_reset();

// The probe: at construction it enters the named child of the thread's
// profile tree (profiling on) and notes the start time; at destruction
// it records one call there and one trace event (tracing on). The
// enable bits are read once, at construction. `name` must be a string
// literal (node identity is the pointer first, contents second).
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    const unsigned probes = detail::g_probes.load(std::memory_order_relaxed);
    if (probes != 0) open(name, probes);
  }
  ~ProfileScope() {
    if (name_ != nullptr) close();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  void open(const char* name, unsigned probes);
  void close();

  const char* name_ = nullptr;           // nullptr while both probes are off
  detail::ProfileNode* node_ = nullptr;  // nullptr unless profiling
  bool trace_ = false;
  std::int64_t start_ns_ = 0;
};

}  // namespace spectra::obs

#define SG_PROFILE_CONCAT_INNER(a, b) a##b
#define SG_PROFILE_CONCAT(a, b) SG_PROFILE_CONCAT_INNER(a, b)

// `name` must be a string literal (or otherwise outlive the process).
// -DSPECTRA_STRIP_PROBES compiles the scope away entirely; the CI
// obs-overhead job builds a stripped twin to measure what the disabled
// probes cost against truly probe-free code.
#if defined(SPECTRA_STRIP_PROBES)
#define SG_PROFILE_SCOPE(name) \
  do {                         \
  } while (false)
#else
#define SG_PROFILE_SCOPE(name) \
  ::spectra::obs::ProfileScope SG_PROFILE_CONCAT(sg_profile_scope_, __COUNTER__)(name)
#endif
