// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with lock-cheap hot paths (a relaxed atomic op per update;
// the registry mutex is only taken at instrument lookup, which callers
// amortize behind function-local statics).
//
// Snapshots are exported as aligned text or JSON. When SPECTRA_METRICS
// names a file, the JSON snapshot is also written there at process exit.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spectra::obs {

// `s` as the body of a JSON string: quotes and backslashes escaped,
// control characters as \u00XX. Every JSON writer in obs uses it.
std::string json_escape(std::string_view s);

// `value` as "%.17g", which reads back to the same double.
std::string format_double(double value);

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// High-water-mark gauge: update() keeps the maximum value ever seen.
// Marks are non-negative by convention (queue depths, peak RSS); reset
// returns to zero.
class MaxGauge {
 public:
  void update(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Histogram over fixed, strictly increasing upper bounds. Values above
// the last bound land in an implicit +inf overflow bucket, so there are
// bounds().size() + 1 buckets in total.
//
// Beside the buckets, every histogram keeps a fixed-size reservoir
// sample of the observed values (Algorithm R with a counter-hash random
// source — lock-free, no RNG state), so snapshots report real
// p50/p95/p99 instead of bucket-resolution estimates.
class Histogram {
 public:
  // Reservoir capacity: 512 doubles (4 KiB) bounds the p99 rank error
  // near 0.5% while keeping per-histogram memory trivial.
  static constexpr std::size_t kReservoirSize = 512;

  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket_count(std::size_t index) const;
  void reset();

  // Quantile estimate from the reservoir sample (sorted, linearly
  // interpolated between order statistics). `q` in [0, 1]; NaN when no
  // values have been observed.
  double quantile(double q) const;

  // Coarser quantile estimate interpolated inside the fixed buckets
  // (lower edge of bucket 0 is taken as 0 — all registered histograms
  // record non-negative quantities). NaN when empty; values in the +inf
  // overflow bucket clamp to the last finite bound.
  double bucket_quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::vector<std::atomic<double>> reservoir_;       // kReservoirSize slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Exponential seconds buckets, 1us .. 10s — the default for timing
// histograms (FFT calls, iteration phases).
std::vector<double> default_time_buckets();

class Registry {
 public:
  // The process-wide registry (leaked so instruments stay valid for
  // atexit dumps and for threads still running during shutdown).
  static Registry& instance();

  // Lookup-or-create by name. Returned references are stable for the
  // process lifetime; cache them in a function-local static on hot paths.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  MaxGauge& max_gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds = {});

  std::string text_snapshot() const;
  std::string json_snapshot() const;

  // Zero every instrument's value (names stay registered). Tests only.
  void reset_values();

 private:
  Registry() = default;

  mutable Mutex mutex_ SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  // Ordered by registration; unique_ptr keeps addresses stable (the
  // instruments themselves are relaxed atomics, so only the name lists
  // are guarded — updates through returned references are lock-free).
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_
      SG_GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_
      SG_GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, std::unique_ptr<MaxGauge>>> max_gauges_
      SG_GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_
      SG_GUARDED_BY(mutex_);
};

// Snapshots of the process registry.
std::string metrics_snapshot();       // aligned text
std::string metrics_snapshot_json();  // JSON object

// Write the JSON snapshot to `path`, or to $SPECTRA_METRICS when `path`
// is empty. No-op when neither names a file.
void dump_metrics(const std::string& path = "");

// RAII seconds timer: records the scope's wall time into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start_;
    histogram_.observe(elapsed.count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace spectra::obs
