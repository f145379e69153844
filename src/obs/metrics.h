// Process-wide metrics registry: named counters, gauges, max-gauges and
// reservoir histograms with lock-cheap hot paths (a relaxed atomic op per
// update; the registry mutex is only taken at instrument lookup, which
// callers amortize behind function-local statics).
//
// Snapshots are exported as JSON. When SPECTRA_METRICS names a file, the
// obs session (obs/session.h) writes the snapshot there at process exit.

#pragma once

#include <atomic>
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

// Histogram: the count and sum of the observed values, plus a
// fixed-size reservoir sample of them (Algorithm R with a counter-hash
// random source — lock-free, no RNG state), so snapshots report real
// p50/p95/p99.
class Histogram {
 public:
  // Reservoir capacity: 512 doubles (4 KiB) bounds the p99 rank error
  // near 0.5% while keeping per-histogram memory trivial.
  static constexpr std::size_t kReservoirSize = 512;

  Histogram();

  void observe(double value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

  // Quantile estimate from the reservoir sample (sorted, linearly
  // interpolated between order statistics). `q` in [0, 1]; NaN when no
  // values have been observed.
  double quantile(double q) const;

 private:
  std::vector<std::atomic<double>> reservoir_;  // kReservoirSize slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class Registry {
 public:
  // The process-wide registry (leaked so instruments stay valid for the
  // session's exit writer and for threads still running during shutdown).
  static Registry& instance();

  // Lookup-or-create by name. Returned references are stable for the
  // process lifetime; cache them in a function-local static on hot paths.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  MaxGauge& max_gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  std::string json_snapshot() const;

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

// Write the registry's JSON snapshot to `path`.
void dump_metrics(const std::string& path);

}  // namespace spectra::obs
