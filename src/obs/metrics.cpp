#include "obs/metrics.h"

#include "obs/profile.h"
#include "obs/run_manifest.h"
#include "obs/sampler.h"
#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace spectra::obs {

namespace {

// CAS loop instead of atomic<double>::fetch_add: the latter is C++20 but
// still lowers to a CAS loop on x86 anyway, and this spelling compiles on
// every toolchain we target.
void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta, std::memory_order_relaxed)) {
  }
}

// SplitMix64 finalizer: the reservoir's random source is a pure hash of
// the observation index, so sampling needs no RNG state and stays
// race-free (two threads hashing distinct indices never contend).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Sorted-sample quantile with linear interpolation between order
// statistics.
double sorted_quantile(std::vector<double>& values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void Gauge::add(double delta) { atomic_add(value_, delta); }

void MaxGauge::update(double value) {
  double current = value_.load(std::memory_order_relaxed);
  while (value > current &&
         !value_.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1),
      reservoir_(kReservoirSize) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      bounds_.clear();
      buckets_ = std::vector<std::atomic<std::uint64_t>>(1);
      break;
    }
  }
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  // Algorithm R over the fixed reservoir: the first kReservoirSize
  // observations fill it, later ones replace a pseudo-random slot with
  // probability kReservoirSize/(n+1). A racing pair of stores just means
  // one sampled value wins the slot — acceptable for a sample.
  if (n < kReservoirSize) {
    reservoir_[static_cast<std::size_t>(n)].store(value, std::memory_order_relaxed);
  } else {
    const std::uint64_t r = mix64(n) % (n + 1);
    if (r < kReservoirSize) {
      reservoir_[static_cast<std::size_t>(r)].store(value, std::memory_order_relaxed);
    }
  }
}

std::uint64_t Histogram::bucket_count(std::size_t index) const {
  return index < buckets_.size() ? buckets_[index].load(std::memory_order_relaxed) : 0;
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  for (auto& slot : reservoir_) slot.store(0.0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  const std::size_t filled =
      static_cast<std::size_t>(std::min<std::uint64_t>(n, kReservoirSize));
  std::vector<double> sample(filled);
  for (std::size_t i = 0; i < filled; ++i) {
    sample[i] = reservoir_[i].load(std::memory_order_relaxed);
  }
  return sorted_quantile(sample, q);
}

double Histogram::bucket_quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      if (i >= bounds_.size()) return bounds_.empty() ? 0.0 : bounds_.back();
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      const double frac =
          (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, frac));
    }
    cumulative += in_bucket;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<double> default_time_buckets() {
  // 1us, 3.16us, 10us, ... 10s (half-decade steps).
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 10.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 3.162277660168379);
  }
  bounds.push_back(10.0);
  return bounds;
}

Registry& Registry::instance() {
  static Registry* registry = [] {
    Registry* r = new Registry();
    if (std::getenv("SPECTRA_METRICS") != nullptr) {
      std::atexit([] { dump_metrics(); });
    }
    return r;
  }();
  // The other obs env hooks (profiler, sampler, manifest) fire here
  // because this is the one obs symbol every binary references — their
  // own translation units would otherwise be dropped from the static
  // archive along with any TU-level initializers. The hooks never call
  // Registry::instance() on this thread (the sampler only spawns its
  // thread), so the nested static init cannot recurse.
  static const bool hooks_installed = [] {
    detail::trace_env_autostart();
    detail::profile_env_autostart();
    detail::sampler_env_autostart();
    detail::run_manifest_env_autostart();
    return true;
  }();
  (void)hooks_installed;
  return *registry;
}

Counter& Registry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  for (auto& entry : counters_) {
    if (entry.first == name) return *entry.second;
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return *counters_.back().second;
}

Gauge& Registry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  for (auto& entry : gauges_) {
    if (entry.first == name) return *entry.second;
  }
  gauges_.emplace_back(name, std::make_unique<Gauge>());
  return *gauges_.back().second;
}

MaxGauge& Registry::max_gauge(const std::string& name) {
  MutexLock lock(mutex_);
  for (auto& entry : max_gauges_) {
    if (entry.first == name) return *entry.second;
  }
  max_gauges_.emplace_back(name, std::make_unique<MaxGauge>());
  return *max_gauges_.back().second;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> upper_bounds) {
  MutexLock lock(mutex_);
  for (auto& entry : histograms_) {
    if (entry.first == name) return *entry.second;
  }
  if (upper_bounds.empty()) upper_bounds = default_time_buckets();
  histograms_.emplace_back(name, std::make_unique<Histogram>(std::move(upper_bounds)));
  return *histograms_.back().second;
}

std::string Registry::text_snapshot() const {
  MutexLock lock(mutex_);
  std::ostringstream out;
  out << "# metrics snapshot\n";
  for (const auto& [name, counter] : counters_) {
    out << "counter " << name << " = " << counter->value() << '\n';
  }
  for (const auto& [name, gauge] : gauges_) {
    out << "gauge " << name << " = " << format_double(gauge->value()) << '\n';
  }
  for (const auto& [name, gauge] : max_gauges_) {
    out << "maxgauge " << name << " = " << format_double(gauge->value()) << '\n';
  }
  for (const auto& [name, hist] : histograms_) {
    out << "histogram " << name << " count=" << hist->count()
        << " sum=" << format_double(hist->sum());
    const double count = static_cast<double>(hist->count());
    if (count > 0) {
      out << " mean=" << format_double(hist->sum() / count)
          << " p50=" << format_double(hist->quantile(0.50))
          << " p95=" << format_double(hist->quantile(0.95))
          << " p99=" << format_double(hist->quantile(0.99));
    }
    out << '\n';
    for (std::size_t i = 0; i <= hist->bounds().size(); ++i) {
      const std::uint64_t n = hist->bucket_count(i);
      if (n == 0) continue;
      out << "  le ";
      if (i < hist->bounds().size()) {
        out << format_double(hist->bounds()[i]);
      } else {
        out << "+inf";
      }
      out << ": " << n << '\n';
    }
  }
  return out.str();
}

std::string Registry::json_snapshot() const {
  MutexLock lock(mutex_);
  std::ostringstream out;
  out << "{\"counters\":{";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << json_escape(counters_[i].first) << "\":" << counters_[i].second->value();
  }
  out << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << json_escape(gauges_[i].first)
        << "\":" << format_double(gauges_[i].second->value());
  }
  out << "},\"max_gauges\":{";
  for (std::size_t i = 0; i < max_gauges_.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << json_escape(max_gauges_[i].first)
        << "\":" << format_double(max_gauges_[i].second->value());
  }
  out << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    if (i != 0) out << ',';
    const Histogram& hist = *histograms_[i].second;
    out << '"' << json_escape(histograms_[i].first) << "\":{\"count\":" << hist.count()
        << ",\"sum\":" << format_double(hist.sum());
    if (hist.count() > 0) {
      out << ",\"p50\":" << format_double(hist.quantile(0.50))
          << ",\"p95\":" << format_double(hist.quantile(0.95))
          << ",\"p99\":" << format_double(hist.quantile(0.99));
    }
    out << ",\"bounds\":[";
    for (std::size_t b = 0; b < hist.bounds().size(); ++b) {
      if (b != 0) out << ',';
      out << format_double(hist.bounds()[b]);
    }
    out << "],\"buckets\":[";
    for (std::size_t b = 0; b <= hist.bounds().size(); ++b) {
      if (b != 0) out << ',';
      out << hist.bucket_count(b);
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

void Registry::reset_values() {
  MutexLock lock(mutex_);
  for (auto& entry : counters_) entry.second->reset();
  for (auto& entry : gauges_) entry.second->reset();
  for (auto& entry : max_gauges_) entry.second->reset();
  for (auto& entry : histograms_) entry.second->reset();
}

std::string metrics_snapshot() { return Registry::instance().text_snapshot(); }

std::string metrics_snapshot_json() { return Registry::instance().json_snapshot(); }

void dump_metrics(const std::string& path) {
  std::string target = path;
  if (target.empty()) {
    const char* env = std::getenv("SPECTRA_METRICS");
    if (env != nullptr) target = env;
  }
  if (target.empty()) return;
  std::ofstream out(target);
  if (!out) return;
  out << Registry::instance().json_snapshot() << '\n';
}

}  // namespace spectra::obs
