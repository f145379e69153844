#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/session.h"

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

// The obs session's one trigger (obs/session.h). Every obs translation
// unit calls into this file (json_escape, format_double, the registry),
// so the static archive links it, and this initializer with it, into
// every binary that links obs at all: the knobs are read before main.
const bool g_session_started = (detail::start_session(), true);

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

Histogram::Histogram() : reservoir_(kReservoirSize) {}

void Histogram::observe(double value) {
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

void Histogram::reset() {
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

Registry& Registry::instance() {
  static Registry* registry = new Registry();
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

Histogram& Registry::histogram(const std::string& name) {
  MutexLock lock(mutex_);
  for (auto& entry : histograms_) {
    if (entry.first == name) return *entry.second;
  }
  histograms_.emplace_back(name, std::make_unique<Histogram>());
  return *histograms_.back().second;
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
    out << '}';
  }
  out << "}}";
  return out.str();
}

void dump_metrics(const std::string& path) {
  std::ofstream out(path);
  if (!out) return;
  out << Registry::instance().json_snapshot() << '\n';
}

}  // namespace spectra::obs
