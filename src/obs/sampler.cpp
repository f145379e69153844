#include "obs/sampler.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.h"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace spectra::obs {

namespace {

// Parse "VmRSS:     1234 kB"-style lines from /proc/self/status.
double status_kb(const std::string& contents, const char* key) {
  const std::size_t pos = contents.find(key);
  if (pos == std::string::npos) return 0.0;
  const char* p = contents.c_str() + pos + std::string(key).size();
  return std::strtod(p, nullptr) * 1024.0;
}

// Milliseconds since the first call (sampler time origin for JSONL ticks).
double elapsed_ms() {
  // sg-lint: allow(mutable-static) const time origin, set once on first sample
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - origin;
  return elapsed.count();
}

// Append one resource tick to the train JSONL at `path`. The sampler
// keeps its own append-mode stream (O_APPEND, flushed per line) so it
// interleaves whole lines with the trainer's TrainLogSink without
// coordination.
void append_jsonl_tick(const ProcSample& sample, const std::string& path) {
  Registry& registry = Registry::instance();
  std::ostringstream line;
  line << "{\"sample_ms\":" << format_double(elapsed_ms())
       << ",\"rss_bytes\":" << format_double(sample.rss_bytes)
       << ",\"peak_rss_bytes\":" << format_double(sample.peak_rss_bytes)
       << ",\"cpu_utime_seconds\":" << format_double(sample.cpu_utime_seconds)
       << ",\"cpu_stime_seconds\":" << format_double(sample.cpu_stime_seconds)
       << ",\"pool_queue_depth\":" << format_double(registry.gauge("pool.queue_depth").value())
       << ",\"pool_tasks_executed\":" << registry.counter("pool.tasks_executed").value()
       << '}';
  std::ofstream out(path, std::ios::app);
  if (!out) return;
  out << line.str() << '\n';
}

}  // namespace

ProcSample read_proc_sample() {
  ProcSample sample;
#if defined(__linux__)
  {
    std::ifstream status("/proc/self/status");
    if (status) {
      std::stringstream contents;
      contents << status.rdbuf();
      const std::string text = contents.str();
      sample.rss_bytes = status_kb(text, "VmRSS:");
      sample.peak_rss_bytes = status_kb(text, "VmHWM:");
    }
  }
  {
    std::ifstream stat("/proc/self/stat");
    std::string line;
    if (stat && std::getline(stat, line)) {
      // Fields 14 (utime) and 15 (stime) in clock ticks; the comm field
      // may contain spaces, so tokenize after the closing ')'.
      const std::size_t close = line.rfind(')');
      if (close != std::string::npos) {
        std::istringstream fields(line.substr(close + 1));
        std::string token;
        double utime_ticks = 0.0;
        double stime_ticks = 0.0;
        // After ')': state is field 3; utime is field 14 → the 12th token.
        for (int i = 1; i <= 13 && (fields >> token); ++i) {
          if (i == 12) utime_ticks = std::strtod(token.c_str(), nullptr);
          if (i == 13) stime_ticks = std::strtod(token.c_str(), nullptr);
        }
        const double ticks_per_second = static_cast<double>(sysconf(_SC_CLK_TCK));
        if (ticks_per_second > 0.0) {
          sample.cpu_utime_seconds = utime_ticks / ticks_per_second;
          sample.cpu_stime_seconds = stime_ticks / ticks_per_second;
        }
      }
    }
  }
#endif
  return sample;
}

ProcSample sample_once() {
  const ProcSample sample = read_proc_sample();
  Registry& registry = Registry::instance();
  registry.gauge("proc.rss_bytes").set(sample.rss_bytes);
  registry.max_gauge("proc.peak_rss_bytes").update(sample.peak_rss_bytes);
  registry.gauge("proc.cpu_utime_seconds").set(sample.cpu_utime_seconds);
  registry.gauge("proc.cpu_stime_seconds").set(sample.cpu_stime_seconds);
  registry.counter("proc.sampler_ticks").inc();
  return sample;
}

ResourceSampler& ResourceSampler::instance() {
  // sg-lint: allow(mutable-static) leaked sampler singleton; stop() at exit joins the thread
  static ResourceSampler* sampler = new ResourceSampler();
  return *sampler;
}

void ResourceSampler::start(long interval_ms) {
  MutexLock lock(mutex_);
  if (running_) return;
  if (interval_ms < 1) interval_ms = 1;
  stop_flag_ = false;
  running_ = true;
  // Read once here, not per tick: the environment is not safe to read
  // on one thread while another calls setenv.
  const char* train_log = std::getenv("SPECTRA_TRAIN_LOG");
  const std::string jsonl_path = train_log != nullptr ? train_log : "";
  thread_ = std::thread([this, interval_ms, jsonl_path] { loop(interval_ms, jsonl_path); });
}

void ResourceSampler::stop() {
  std::thread to_join;
  {
    MutexLock lock(mutex_);
    if (!running_) return;
    stop_flag_ = true;
    to_join = std::move(thread_);
    running_ = false;
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

bool ResourceSampler::running() const {
  MutexLock lock(mutex_);
  return running_;
}

void ResourceSampler::loop(long interval_ms, const std::string& jsonl_path) {
  for (;;) {
    const ProcSample sample = sample_once();
    if (!jsonl_path.empty()) append_jsonl_tick(sample, jsonl_path);
    const std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(interval_ms);
    // Explicit deadline loop instead of a predicate wait: the thread
    // safety analysis does not look inside lambdas, so this keeps the
    // stop_flag_ read checked against mutex_.
    MutexLock lock(mutex_);
    while (!stop_flag_) {
      if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) break;
    }
    if (stop_flag_) return;
  }
}

}  // namespace spectra::obs
