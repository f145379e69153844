// Background resource sampler: an opt-in thread that periodically
// records process RSS / peak RSS (/proc/self/status), CPU utime/stime
// (/proc/self/stat), and thread-pool queue state into the metrics
// registry — and, when SPECTRA_TRAIN_LOG is set, appends one JSONL tick
// line per sample so resource usage lands in the same time-series as the
// training telemetry.
//
// Sampling is off by default. With SPECTRA_SAMPLE_MS=<interval> set, the
// obs session (obs/session.h) starts the sampler at that cadence before
// main and stops it first at exit; tests drive it directly with
// start()/stop() or take single snapshots with sample_once().
//
// Instruments updated per tick:
//   proc.rss_bytes            gauge      resident set size
//   proc.peak_rss_bytes       max_gauge  high-water RSS (VmHWM)
//   proc.cpu_utime_seconds    gauge      cumulative user CPU
//   proc.cpu_stime_seconds    gauge      cumulative system CPU
//   proc.sampler_ticks        counter    samples taken
//
// The sampler only reads /proc and stores into registry atomics — it
// never touches compute state, preserving the bitwise-determinism
// contract regardless of tick timing.

#pragma once

#include <string>
#include <thread>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spectra::obs {

// One snapshot of the process resource counters. Zeroes on platforms
// without /proc (the sampler then still ticks, recording zeros).
struct ProcSample {
  double rss_bytes = 0.0;
  double peak_rss_bytes = 0.0;
  double cpu_utime_seconds = 0.0;
  double cpu_stime_seconds = 0.0;
};

// Read /proc/self/{status,stat} once. Exposed for tests and for callers
// that want a snapshot without the background thread.
ProcSample read_proc_sample();

// Take one sample and push it into the metrics registry. Returns the
// sample. This is the body of one background tick, which also appends
// it to SPECTRA_TRAIN_LOG's JSONL when that names a file.
ProcSample sample_once();

class ResourceSampler {
 public:
  // The process-wide sampler (leaked; the thread is joined on stop()).
  static ResourceSampler& instance();

  // Start ticking every `interval_ms` (clamped to >= 1). No-op when
  // already running. SPECTRA_TRAIN_LOG is read here, once per start.
  void start(long interval_ms);

  // Stop and join the background thread. Safe to call when not running.
  void stop();

  bool running() const;

 private:
  ResourceSampler() = default;

  void loop(long interval_ms, const std::string& jsonl_path);

  mutable Mutex mutex_ SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  CondVar cv_;  // signalled by stop() to cut a sleep short
  std::thread thread_ SG_GUARDED_BY(mutex_);
  bool running_ SG_GUARDED_BY(mutex_) = false;
  bool stop_flag_ SG_GUARDED_BY(mutex_) = false;
};

}  // namespace spectra::obs
