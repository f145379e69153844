// End-to-end benchmark: four paper-shape workloads, one per process
// (VmHWM is monotone, so peak RSS is per workload only in its own
// process). Driven by run.py; README.md says why each workload exists.
//
//   bench_e2e --workload train|citygen|megacity|serve --seed N --seconds S
//             --out DIR [--traced] [--setup-only] [--scale full|smoke]
//             [--perturb-reference]
//
// A run sets up once, as a fresh process does (setup_s; the warm-up op
// that fills the FFT plan caches and GEMM workspaces counts as set-up),
// repeats the workload's unit of work for --seconds, checks every output,
// and writes DIR/result.json and DIR/run.json (plus DIR/profile.json when
// traced). --setup-only stops after the set-up; run.py starts several
// such processes so that setup_s is a median of cold set-ups. Inputs
// derive from --seed alone; nothing is written outside DIR.
//
// --traced alternates untraced and traced ops (serve: traced phases plus
// an alternating solo-request calibration), so profiler overhead is a
// within-run ratio and the ledger covers traced time only. Only public
// library APIs are called; the bench/* profile scopes live in this file.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "core/variants.h"
#include "data/context.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "geo/city_tensor.h"
#include "geo/strip_accumulator.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/run_manifest.h"
#include "obs/sampler.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace spectra;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out;
  bool traced = false;
  bool setup_only = false;
  bool smoke = false;
  bool perturb_reference = false;  // serve only: must make the run fail
};

// Every run does at least this many ops, so the output digest (taken
// over the first kMinOps ops) and the traced/untraced alternation
// always have data.
constexpr long kMinOps = 2;

// FNV-1a 64 over raw bytes: the output digest.
class Fnv {
 public:
  void add(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void add_values(const std::vector<T>& v) {
    add(v.data(), v.size() * sizeof(T));
  }
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

// Linear-interpolated quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

bool finite_non_negative(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v) && v >= 0.0; });
}

// Registry instruments reported as deltas (counters) or phase peaks
// (max gauges) over the measured phase.
const char* const kCounters[] = {
    "gemm.workspace_grows", "fft.calls",          "fft.bluestein_calls",
    "fft.rfft_fast_calls",  "geo.rows_spilled",   "geo.patches_accumulated",
    "pool.parallel_chunks", "pool.parallel_inline_runs", "checkpoint.writes",
    "serve.requests_rejected", "serve.requests_failed",
};
const char* const kPeaks[] = {
    "geo.strip_resident_bytes_peak", "pool.queue_depth_peak",
    "serve.inflight_peak",           "serve.queue_depth_peak",
};

// What a workload hands back to main for result.json.
struct Outcome {
  double setup_s = 0.0;
  std::vector<double> op_latency_s;  // one sample per unit of work
  // Pixel-steps per second of each op (train: consumed; serve: one
  // entry, the closed loop). px_per_s is their median.
  std::vector<double> op_rates;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  // output-correctness failures
  std::uint64_t digest = 0;
  std::vector<double> traced_op_s;
  std::vector<double> untraced_op_s;
  double phase_wall_s = 0.0;
  double compute_threads = 1.0;
  std::vector<std::pair<std::string, double>> extra;

  // Measured-phase bookkeeping (phase_begin / phase_end).
  Clock::time_point phase_start{};
  double cpu_before = 0.0;
  double cpu_seconds = 0.0;
  double checkpoint_write_before = 0.0;
  std::vector<std::uint64_t> counters_before;
  std::vector<std::pair<std::string, double>> registry;

  void check(bool ok, const std::string& what) {
    if (!ok && std::find(errors.begin(), errors.end(), what) == errors.end()) {
      errors.push_back(what);
    }
  }
  double registry_value(const std::string& name) const {
    for (const auto& [key, value] : registry) {
      if (key == name) return value;
    }
    return 0.0;
  }
};

double cpu_now() {
  const obs::ProcSample s = obs::read_proc_sample();
  return s.cpu_utime_seconds + s.cpu_stime_seconds;
}

void phase_begin(Outcome& outcome) {
  obs::Registry& registry = obs::Registry::instance();
  outcome.counters_before.clear();
  for (const char* name : kCounters) outcome.counters_before.push_back(registry.counter(name).value());
  for (const char* name : kPeaks) registry.max_gauge(name).reset();
  outcome.checkpoint_write_before = registry.histogram("checkpoint.write_seconds").sum();
  outcome.cpu_before = cpu_now();
  obs::profile_reset();
  outcome.phase_start = Clock::now();
}

void phase_end(Outcome& outcome) {
  outcome.phase_wall_s = seconds_since(outcome.phase_start);
  outcome.cpu_seconds = cpu_now() - outcome.cpu_before;
  obs::Registry& registry = obs::Registry::instance();
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    outcome.registry.push_back(
        {kCounters[i],
         static_cast<double>(registry.counter(kCounters[i]).value() - outcome.counters_before[i])});
  }
  for (const char* name : kPeaks) outcome.registry.push_back({name, registry.max_gauge(name).value()});
  outcome.registry.push_back(
      {"checkpoint.write_seconds",
       registry.histogram("checkpoint.write_seconds").sum() - outcome.checkpoint_write_before});
}

// Times the process's only set-up, which pays for the cold plan caches,
// workspaces and first-touch pages.
template <typename State, typename Make>
std::unique_ptr<State> timed_setup(Outcome& outcome, Make make) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<State> state = make();
  outcome.setup_s = seconds_since(t0);
  return state;
}

// Runs ops until --seconds have passed (and at least kMinOps). With
// --traced, odd ops run with the profiler on and even ops with it off.
void op_loop(const Args& args, Outcome& outcome, const std::function<void(long)>& op) {
  phase_begin(outcome);
  for (long i = 0; i < kMinOps || seconds_since(outcome.phase_start) < args.seconds; ++i) {
    const bool traced = args.traced && i % 2 == 1;
    obs::profile_set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    op(i);
    const double s = seconds_since(t0);
    obs::profile_set_enabled(false);
    if (args.traced) (traced ? outcome.traced_op_s : outcome.untraced_op_s).push_back(s);
  }
  phase_end(outcome);
}

// Times each row hand-off into the wrapped sink under a bench scope.
class TimedSink : public geo::RowSink {
 public:
  explicit TimedSink(geo::RowSink& inner) : inner_(inner) {}
  void consume_row(long row, const std::vector<double>& values) override {
    obs::ProfileScope scope("bench/sink_write");
    inner_.consume_row(row, values);
  }

 private:
  geo::RowSink& inner_;
};

geo::ContextTensor unseen_city_context(long height, long width, Rng& rng) {
  const data::LatentFields latents = data::sample_latent_fields(height, width, rng);
  return data::derive_context(latents, rng);
}

// ---------------------------------------------------------------------------
// train: paper config on Country-1 cities {0, 1}, one thread. An op is
// one checkpoint segment: build the model, resume from the previous
// segment's snapshot (parameters, Adam moments, Rng, histories), run
// `segment` iterations and write the next snapshot.

void run_train(const Args& args, Outcome& outcome) {
  set_parallel_threads(1);
  const long segment = args.smoke ? 3 : 100;
  const std::string ckpt_dir = args.out + "/ckpt";

  struct State {
    data::CountryDataset dataset;
    std::unique_ptr<data::PatchSampler> sampler;
    core::SpectraGanConfig config;
  };
  auto state = timed_setup<State>(outcome, [&] {
    auto s = std::make_unique<State>();
    data::DatasetConfig dataset_config;
    dataset_config.seed = args.seed;
    s->dataset = data::make_country1(dataset_config);
    s->config = core::default_config();
    s->sampler = std::make_unique<data::PatchSampler>(
        s->dataset, std::vector<std::size_t>{0, 1}, s->config.patch, 0, s->config.train_steps);
    // Warm-up op: one iteration, no checkpoint.
    core::SpectraGanConfig warm = s->config;
    warm.iterations = 1;
    core::SpectraGan model(warm, args.seed);
    Rng rng(args.seed);
    model.train(*s->sampler, rng, train::CheckpointOptions{});
    return s;
  });
  if (args.setup_only) return;
  fs::remove_all(ckpt_dir);

  const core::SpectraGanConfig& config = state->config;
  const double px_per_iter = static_cast<double>(config.batch * config.patch.traffic_h *
                                                 config.patch.traffic_w * config.train_steps);
  core::TrainStats previous;
  op_loop(args, outcome, [&](long i) {
    const Clock::time_point t0 = Clock::now();
    core::TrainStats stats;
    {
      obs::ProfileScope scope("bench/train");
      core::SpectraGanConfig seg_config = config;
      seg_config.iterations = (i + 1) * segment;
      core::SpectraGan model(seg_config, args.seed);
      Rng rng(args.seed);
      train::CheckpointOptions ckpt;
      ckpt.dir = ckpt_dir;
      ckpt.every = segment;
      ckpt.keep_last = 2;
      stats = model.train(*state->sampler, rng, ckpt);
    }
    const double seconds = seconds_since(t0);
    ++outcome.attempted;

    const auto begin = static_cast<std::size_t>(i * segment);
    const bool complete = stats.iterations == (i + 1) * segment &&
                          stats.resumed_iteration == i * segment &&
                          stats.d_loss_history.size() == begin + static_cast<std::size_t>(segment);
    outcome.check(complete, "train segment " + std::to_string(i) + " did not resume and finish");
    if (!complete) {
      ++outcome.failed;
      return;
    }
    // The resumed prefix must be exactly what the previous segment saw.
    const auto same_prefix = [begin](const std::vector<double>& now,
                                     const std::vector<double>& before) {
      return before.size() == begin && std::equal(before.begin(), before.end(), now.begin());
    };
    outcome.check(same_prefix(stats.d_loss_history, previous.d_loss_history) &&
                      same_prefix(stats.l1_loss_history, previous.l1_loss_history),
                  "resumed loss history differs from the checkpointed one");
    for (std::size_t k = begin; k < stats.d_loss_history.size(); ++k) {
      outcome.op_latency_s.push_back(stats.iter_seconds_history[k]);
      outcome.check(std::isfinite(stats.d_loss_history[k]) &&
                        std::isfinite(stats.g_adv_loss_history[k]) &&
                        std::isfinite(stats.l1_loss_history[k]),
                    "non-finite training loss");
    }
    outcome.op_rates.push_back(px_per_iter * static_cast<double>(segment) / seconds);
    if (i == kMinOps - 1) {
      Fnv fnv;
      fnv.add_values(stats.d_loss_history);
      fnv.add_values(stats.g_adv_loss_history);
      fnv.add_values(stats.l1_loss_history);
      outcome.digest = fnv.value();
    }
    previous = std::move(stats);
  });
  outcome.check(outcome.registry_value("checkpoint.writes") ==
                    static_cast<double>(outcome.attempted),
                "expected one checkpoint write per segment");
  outcome.extra.push_back({"segment_iterations", static_cast<double>(segment)});
  outcome.extra.push_back({"iterations", static_cast<double>(outcome.op_latency_s.size())});
}

// ---------------------------------------------------------------------------
// citygen: paper model, unseen 64x64 cities three weeks ahead (T = 504,
// k = 3 expansion), two threads, in-memory CityTensorSink. An op is one
// city; ops cycle through the cities with a per-city generation seed, so
// a repeated city must reproduce its first digest.

void run_citygen(const Args& args, Outcome& outcome) {
  const long grid = args.smoke ? 16 : 64;
  const long cities = args.smoke ? 2 : 12;
  const std::size_t threads = 2;
  outcome.compute_threads = static_cast<double>(threads);

  struct State {
    std::unique_ptr<core::SpectraGan> model;
    std::vector<geo::ContextTensor> contexts;
    long steps = 0;
  };
  auto state = timed_setup<State>(outcome, [&] {
    auto s = std::make_unique<State>();
    const core::SpectraGanConfig config = core::default_config();
    s->model = std::make_unique<core::SpectraGan>(config, args.seed);
    s->steps = 3 * config.train_steps;
    Rng rng(args.seed);
    for (long c = 0; c < cities; ++c) {
      Rng city_rng = rng.split(static_cast<std::uint64_t>(c));
      s->contexts.push_back(unseen_city_context(grid, grid, city_rng));
    }
    // Warm-up op on a 16-row city, serial and then at the measured thread
    // count: the two must agree bitwise.
    Rng warm_rng = rng.split(0x5eedULL);
    const geo::ContextTensor warm = unseen_city_context(16, grid, warm_rng);
    set_parallel_threads(1);
    Rng serial_rng(args.seed);
    const geo::CityTensor serial = s->model->generate_city(warm, s->steps, serial_rng);
    set_parallel_threads(threads);
    Rng parallel_rng(args.seed);
    const geo::CityTensor parallel = s->model->generate_city(warm, s->steps, parallel_rng);
    outcome.check(serial.values() == parallel.values(),
                  "citygen output depends on the thread count");
    return s;
  });
  if (args.setup_only) return;

  std::vector<std::uint64_t> first_digest(static_cast<std::size_t>(cities), 0);
  Fnv run_digest;
  op_loop(args, outcome, [&](long i) {
    const long c = i % cities;
    geo::CityTensorSink sink(state->steps, grid, grid);
    TimedSink timed(sink);
    Rng rng(args.seed * 1000003ULL + static_cast<std::uint64_t>(c));
    const Clock::time_point t0 = Clock::now();
    {
      obs::ProfileScope scope("bench/citygen");
      state->model->generate_city_streamed(state->contexts[static_cast<std::size_t>(c)],
                                           state->steps, rng, timed);
    }
    const double s = seconds_since(t0);
    const geo::CityTensor city = sink.take();
    ++outcome.attempted;
    outcome.op_latency_s.push_back(s);
    outcome.op_rates.push_back(static_cast<double>(city.size()) / s);

    Fnv fnv;
    fnv.add_values(city.values());
    const bool valid = city.steps() == state->steps && finite_non_negative(city.values());
    outcome.check(valid, "citygen city holds a negative or non-finite value");
    std::uint64_t& first = first_digest[static_cast<std::size_t>(c)];
    outcome.check(first == 0 || first == fnv.value(), "a repeated city changed its output");
    if (first == 0) first = fnv.value();
    if (!valid) ++outcome.failed;
    if (i < kMinOps) run_digest.add_u64(fnv.value());
  });
  outcome.digest = run_digest.value();
  outcome.extra.push_back({"grid", static_cast<double>(grid)});
  outcome.extra.push_back({"steps", static_cast<double>(state->steps)});
}

// ---------------------------------------------------------------------------
// megacity: bench_megacity's small model (the subject is sewing, spill
// and per-op dispatch, not the generator), one thread, 1024-wide cities
// streamed through SpillRowSink into --out. An op is one city; ops
// alternate between two contexts, so op k + 2 must reproduce op k.

core::SpectraGanConfig megacity_config() {
  core::SpectraGanConfig config;
  config.patch = {.traffic_h = 8, .traffic_w = 8, .context_h = 16, .context_w = 16, .stride = 4};
  config.context_channels = 3;
  config.train_steps = 24;
  config.spectrum_bins = 8;
  config.hidden_channels = 6;
  config.encoder_mid_channels = 8;
  config.spectrum_mid_channels = 8;
  config.lstm_hidden = 8;
  config.cond_dim = 8;
  config.disc_mlp_hidden = 8;
  config.noise_channels = 2;
  return config;
}

geo::ContextTensor uniform_context(long channels, long height, long width, Rng& rng) {
  geo::ContextTensor context(channels, height, width);
  for (double& v : context.values()) v = rng.uniform(0, 1);
  return context;
}

void run_megacity(const Args& args, Outcome& outcome) {
  set_parallel_threads(1);
  const long height = args.smoke ? 16 : 128;
  const long width = args.smoke ? 128 : 1024;
  const long contexts = 2;

  struct State {
    std::unique_ptr<core::SpectraGan> model;
    std::vector<geo::ContextTensor> contexts;
  };
  auto state = timed_setup<State>(outcome, [&] {
    auto s = std::make_unique<State>();
    s->model = std::make_unique<core::SpectraGan>(megacity_config(), args.seed);
    const core::SpectraGanConfig& config = s->model->config();
    Rng rng(args.seed);
    for (long c = 0; c < contexts; ++c) {
      s->contexts.push_back(uniform_context(config.context_channels, height, width, rng));
    }
    // Warm-up op on a 16-row city: the rows spilled to disk and read back
    // must equal the in-memory city bitwise.
    const geo::ContextTensor warm = uniform_context(config.context_channels, 16, width, rng);
    const std::string path = args.out + "/megacity_warmup.f64";
    {
      geo::SpillRowSink spill(path, config.train_steps, width);
      Rng gen_rng(args.seed);
      s->model->generate_city_streamed(warm, config.train_steps, gen_rng, spill);
      spill.close();
    }
    Rng gen_rng(args.seed);
    const geo::CityTensor in_memory = s->model->generate_city(warm, config.train_steps, gen_rng);
    std::vector<double> row;
    bool equal = true;
    for (long r = 0; r < warm.height(); ++r) {
      geo::read_spilled_row(path, config.train_steps, width, r, row);
      for (long t = 0; t < config.train_steps; ++t) {
        for (long col = 0; col < width; ++col) {
          equal = equal && row[static_cast<std::size_t>(t * width + col)] == in_memory.at(t, r, col);
        }
      }
    }
    outcome.check(equal, "megacity spilled rows differ from the in-memory city");
    fs::remove(path);
    return s;
  });
  if (args.setup_only) return;

  const long steps = state->model->config().train_steps;
  std::vector<std::uint64_t> first_digest(static_cast<std::size_t>(contexts), 0);
  Fnv run_digest;
  op_loop(args, outcome, [&](long i) {
    const long c = i % contexts;
    const std::string path = args.out + "/megacity_" + std::to_string(c) + ".f64";
    long rows = 0;
    const Clock::time_point t0 = Clock::now();
    {
      obs::ProfileScope scope("bench/megacity");
      geo::SpillRowSink spill(path, steps, width);
      TimedSink timed(spill);
      Rng rng(args.seed * 1000003ULL + static_cast<std::uint64_t>(c));
      state->model->generate_city_streamed(state->contexts[static_cast<std::size_t>(c)], steps,
                                           rng, timed);
      spill.close();
      rows = spill.rows_written();
    }
    const double s = seconds_since(t0);
    ++outcome.attempted;
    outcome.op_latency_s.push_back(s);
    outcome.op_rates.push_back(static_cast<double>(height * width * steps) / s);

    // Read the spilled city back: every row present, finite, non-negative.
    Fnv fnv;
    bool valid = rows == height;
    std::vector<double> row;
    for (long r = 0; valid && r < height; ++r) {
      geo::read_spilled_row(path, steps, width, r, row);
      valid = finite_non_negative(row);
      fnv.add_values(row);
    }
    outcome.check(valid, "megacity spilled city is short or holds a bad value");
    std::uint64_t& first = first_digest[static_cast<std::size_t>(c)];
    outcome.check(first == 0 || first == fnv.value(), "a repeated city changed its output");
    if (first == 0) first = fnv.value();
    if (!valid) ++outcome.failed;
    if (i < kMinOps) run_digest.add_u64(fnv.value());
  });
  for (long c = 0; c < contexts; ++c) fs::remove(args.out + "/megacity_" + std::to_string(c) + ".f64");
  outcome.digest = run_digest.value();
  outcome.extra.push_back({"height", static_cast<double>(height)});
  outcome.extra.push_back({"width", static_cast<double>(width)});
}

// ---------------------------------------------------------------------------
// serve: an in-process Server with two workers (each request runs
// serially on its worker). Phase 1, half the run, is an open loop:
// seeded Poisson arrivals at a fixed rate, each request timed from the
// moment it was due. Phase 2 is a closed loop with a fixed number of
// requests outstanding; its throughput (the capacity) and its request
// latencies are the gated numbers. The open-loop figures are reported
// only: with the workers idle between arrivals, their compute time moved
// by 40% between runs on a shared 4-vCPU host, and at 8 req/s (near the
// knee) p50 moved by half between seeds. Open-loop request sizes cycle
// 16, 24, 32 so every seed offers the same mix. Closed-loop requests are
// all 24 wide: with the mix, latencies fell in three clusters and the
// median jumped within the middle one by up to 18% between runs. Every
// response is compared row by row with a direct generation of the same
// (seed, context, T) made during set-up.

struct Template {
  long side = 0;
  std::uint64_t request_seed = 0;
  geo::ContextTensor context;
  geo::CityTensor reference;
};

// Compares each streamed row with the reference as it arrives and
// records when the first row landed. Runs on a server worker.
class ResponseSink : public geo::RowSink {
 public:
  explicit ResponseSink(const Template& tmpl) : tmpl_(tmpl) {}

  void consume_row(long row, const std::vector<double>& values) override {
    obs::ProfileScope scope("bench/emit");
    if (rows_ == 0) first_row_ = Clock::now();
    const geo::CityTensor& ref = tmpl_.reference;
    const long width = ref.width();
    bool equal = row == rows_ && row < ref.height() &&
                 static_cast<long>(values.size()) == ref.steps() * width;
    for (long t = 0; equal && t < ref.steps(); ++t) {
      for (long col = 0; col < width; ++col) {
        equal = equal && values[static_cast<std::size_t>(t * width + col)] == ref.at(t, row, col);
      }
    }
    match_ = match_ && equal;
    fnv_.add_values(values);
    ++rows_;
  }

  // Read only after the request reached a terminal state.
  bool matches() const { return match_ && rows_ == tmpl_.reference.height(); }
  std::uint64_t digest() const { return fnv_.value(); }
  Clock::time_point first_row() const { return first_row_; }

 private:
  const Template& tmpl_;
  long rows_ = 0;
  bool match_ = true;
  Fnv fnv_;
  Clock::time_point first_row_{};
};

// One submitted request and its timeline. `done` is written by the
// completion callback before the handle turns terminal.
struct Flight {
  std::size_t tmpl = 0;
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point done{};
  std::unique_ptr<ResponseSink> sink;
  serve::RequestHandle handle;
};

void run_serve(const Args& args, Outcome& outcome) {
  set_parallel_threads(1);
  const std::size_t workers = 2;
  const double rate = args.smoke ? 20.0 : 4.0;  // open-loop arrivals per second
  const std::size_t outstanding = 4;             // closed-loop requests in flight
  const std::vector<long> sides =
      args.smoke ? std::vector<long>{16} : std::vector<long>{16, 24, 32};
  const long seeds_per_side = 2;
  outcome.compute_threads = static_cast<double>(workers);

  struct State {
    std::shared_ptr<const core::SpectraGan> model;
    std::vector<Template> templates;
    std::unique_ptr<serve::Server> server;
  };
  auto state = timed_setup<State>(outcome, [&] {
    auto s = std::make_unique<State>();
    const core::SpectraGanConfig config = core::default_config();
    s->model = std::make_shared<const core::SpectraGan>(config, args.seed);
    Rng rng(args.seed);
    for (const long side : sides) {
      Rng ctx_rng = rng.split(static_cast<std::uint64_t>(side));
      const geo::ContextTensor context = unseen_city_context(side, side, ctx_rng);
      for (long k = 0; k < seeds_per_side; ++k) {
        Template t;
        t.side = side;
        t.request_seed = args.seed * 7919ULL + static_cast<std::uint64_t>(side * 16 + k);
        t.context = context;
        Rng gen(t.request_seed);
        t.reference = s->model->generate_city(context, config.train_steps, gen);
        s->templates.push_back(std::move(t));
      }
    }
    serve::ServerOptions options;
    options.workers = workers;
    options.queue_limit = 256;
    s->server = std::make_unique<serve::Server>(s->model, options);
    // Warm-up op: one request per worker, so both pooled workspaces grow.
    std::vector<std::unique_ptr<geo::CityTensorSink>> sinks;
    std::vector<serve::RequestHandle> handles;
    for (std::size_t w = 0; w < workers; ++w) {
      const Template& t = s->templates.back();
      sinks.push_back(std::make_unique<geo::CityTensorSink>(t.reference.steps(), t.side, t.side));
      handles.push_back(
          s->server->submit({t.request_seed, t.reference.steps(), t.context}, *sinks.back()));
    }
    for (serve::RequestHandle& h : handles) h.wait();
    return s;
  });
  if (args.setup_only) return;
  if (args.perturb_reference) {
    geo::CityTensor& ref = state->templates.front().reference;
    const long mid = ref.size() / 2;
    ref[mid] = std::nextafter(ref[mid], 1e300);
  }

  serve::Server& server = *state->server;
  const std::vector<Template>& templates = state->templates;
  const long steps = templates.front().reference.steps();
  obs::Histogram& compute = obs::Registry::instance().histogram("serve.req_seconds");

  // Template of the k-th request. Open loop: sides round-robin, then
  // request seeds. Closed loop: the middle side, request seeds alternating.
  const auto per_side = static_cast<std::size_t>(seeds_per_side);
  const auto pick_open = [&](std::size_t k) {
    const std::size_t n = sides.size();
    return (k % n) * per_side + (k / n) % per_side;
  };
  const auto pick_closed = [&](std::size_t k) {
    return sides.size() / 2 * per_side + k % per_side;
  };
  const auto submit = [&](Flight& f) {
    const Template& t = templates[f.tmpl];
    f.sink = std::make_unique<ResponseSink>(t);
    Flight* flight = &f;
    obs::ProfileScope scope("bench/submit");
    f.sent = Clock::now();
    f.handle = server.submit(
        {t.request_seed, steps, t.context}, *f.sink, serve::Server::OnFull::kReject,
        [flight](std::uint64_t, serve::RequestState, long, const std::string&) {
          flight->done = Clock::now();
        });
  };
  // Wait for a request and check it; false when it did not complete.
  const auto finish = [&](Flight& f) {
    ++outcome.attempted;
    const bool ok = f.handle.wait() == serve::RequestState::kDone;
    if (!ok) ++outcome.failed;
    outcome.check(!ok || f.sink->matches(),
                  "a served response differs from the direct-generation reference");
    return ok;
  };

  phase_begin(outcome);
  compute.reset();
  obs::profile_set_enabled(args.traced);

  // Phase 1: open loop.
  const double open_seconds = args.seconds * 0.5;
  std::deque<Flight> open;  // deque: stable addresses for the callbacks
  Rng arrivals(args.seed ^ 0xa55a5aa5ULL);
  for (double due = arrivals.exponential(rate); due < open_seconds;
       due += arrivals.exponential(rate)) {
    Flight& f = open.emplace_back();
    f.tmpl = pick_open(open.size() - 1);
    f.due = outcome.phase_start +
            std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due));
    std::this_thread::sleep_until(f.due);
    submit(f);
  }
  std::vector<double> open_latency;
  std::vector<double> lateness;
  std::vector<double> ttfr;
  Fnv run_digest;
  for (Flight& f : open) {
    if (!finish(f)) continue;
    open_latency.push_back(seconds_between(f.due, f.done));
    ttfr.push_back(seconds_between(f.due, f.sink->first_row()));
    lateness.push_back(seconds_between(f.due, f.sent));
    run_digest.add_u64(f.tmpl);
    run_digest.add_u64(f.sink->digest());
  }
  const double open_wall = seconds_since(outcome.phase_start);
  const double compute_mean =
      compute.count() > 0 ? compute.sum() / static_cast<double>(compute.count()) : 0.0;
  outcome.extra.push_back({"compute_p50_s", compute.quantile(0.50)});
  outcome.extra.push_back({"compute_p95_s", compute.quantile(0.95)});
  outcome.extra.push_back({"compute_mean_s", compute_mean});
  outcome.extra.push_back({"queue_wait_mean_s", mean(open_latency) - compute_mean});

  // Phase 2: closed loop. Requests are replaced in submission order, so
  // at most `outstanding` are in flight (fewer while a younger request
  // has finished before the oldest).
  const Clock::time_point closed_start = Clock::now();
  const double closed_seconds = args.seconds - open_seconds;
  std::deque<Flight> inflight;
  long closed_sent = 0;
  long closed_done = 0;
  double closed_px = 0.0;
  while (inflight.size() < outstanding) {
    Flight& f = inflight.emplace_back();
    f.tmpl = pick_closed(static_cast<std::size_t>(closed_sent++));
    submit(f);
  }
  while (!inflight.empty()) {
    Flight& f = inflight.front();
    if (finish(f)) {
      const long side = templates[f.tmpl].side;
      closed_px += static_cast<double>(side * side * steps);
      outcome.op_latency_s.push_back(seconds_between(f.sent, f.done));
      ++closed_done;
    }
    inflight.pop_front();
    if (seconds_since(closed_start) < closed_seconds) {
      Flight& next = inflight.emplace_back();
      next.tmpl = pick_closed(static_cast<std::size_t>(closed_sent++));
      submit(next);
    }
  }
  const double closed_wall = seconds_since(closed_start);
  outcome.op_rates.push_back(closed_px / closed_wall);
  obs::profile_set_enabled(false);
  phase_end(outcome);
  outcome.digest = run_digest.value();

  // Profiler overhead: solo requests of the smallest size, untraced and
  // traced in U T T U order, so both workers serve both kinds.
  if (args.traced) {
    for (long k = 0; k < 40; ++k) {
      const bool traced = (k + 1) / 2 % 2 == 1;
      Flight f;
      f.tmpl = 0;
      obs::profile_set_enabled(traced);
      const Clock::time_point t0 = Clock::now();
      submit(f);
      finish(f);
      (traced ? outcome.traced_op_s : outcome.untraced_op_s).push_back(seconds_since(t0));
      obs::profile_set_enabled(false);
    }
  }
  server.stop();

  outcome.extra.push_back({"rate_rps", rate});
  outcome.extra.push_back({"open_requests", static_cast<double>(open.size())});
  outcome.extra.push_back({"open_wall_s", open_wall});
  outcome.extra.push_back({"closed_requests", static_cast<double>(closed_done)});
  outcome.extra.push_back({"capacity_rps", static_cast<double>(closed_done) / closed_wall});
  outcome.extra.push_back({"open_p50_s", median(open_latency)});
  outcome.extra.push_back({"open_p90_s", quantile(open_latency, 0.90)});
  outcome.extra.push_back({"ttfr_p50_s", median(ttfr)});
  outcome.extra.push_back({"gen_lateness_p99_s", quantile(lateness, 0.99)});
}

// ---------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? "," : "") + json_number(values[i]);
  return out + "]";
}

std::string json_object(const std::vector<std::pair<std::string, double>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += (i ? ", " : "") + json_string(fields[i].first) + ": " + json_number(fields[i].second);
  }
  return out + "}";
}

void write_result(const Args& args, const Outcome& o, const std::string& path) {
  const double peak_rss_mb = obs::read_proc_sample().peak_rss_bytes / (1024.0 * 1024.0);
  const std::vector<std::pair<std::string, double>> metrics = {
      {"setup_s", o.setup_s},
      {"px_per_s", median(o.op_rates)},
      {"op_p50_ms", 1e3 * median(o.op_latency_s)},
      {"peak_rss_mb", peak_rss_mb},
  };
  // Reported, not gated: the tail moved by up to 29% between runs.
  std::vector<std::pair<std::string, double>> extra = o.extra;
  extra.push_back({"op_p90_ms", 1e3 * quantile(o.op_latency_s, 0.90)});
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(o.digest));
  std::string errors = "[";
  for (std::size_t i = 0; i < o.errors.size(); ++i) errors += (i ? ", " : "") + json_string(o.errors[i]);
  errors += "]";

  std::ofstream out(path);
  out << "{\n"
      << "  \"workload\": " << json_string(args.workload) << ",\n"
      << "  \"seed\": " << args.seed << ",\n"
      << "  \"scale\": " << json_string(args.smoke ? "smoke" : "full") << ",\n"
      << "  \"traced\": " << (args.traced ? "true" : "false") << ",\n"
      << "  \"attempted\": " << o.attempted << ",\n"
      << "  \"failed\": " << o.failed << ",\n"
      << "  \"correct\": " << (o.errors.empty() ? "true" : "false") << ",\n"
      << "  \"errors\": " << errors << ",\n"
      << "  \"output_digest\": " << json_string(digest) << ",\n"
      << "  \"metrics\": " << json_object(metrics) << ",\n"
      << "  \"op_samples\": " << o.op_latency_s.size() << ",\n"
      << "  \"op_latency_s\": " << json_numbers(o.op_latency_s) << ",\n"
      << "  \"phase_wall_s\": " << json_number(o.phase_wall_s) << ",\n"
      << "  \"cpu_seconds\": " << json_number(o.cpu_seconds) << ",\n"
      << "  \"compute_threads\": " << json_number(o.compute_threads) << ",\n"
      << "  \"traced_op_s\": " << json_numbers(o.traced_op_s) << ",\n"
      << "  \"untraced_op_s\": " << json_numbers(o.untraced_op_s) << ",\n"
      << "  \"registry\": " << json_object(o.registry) << ",\n"
      << "  \"extra\": " << json_object(extra) << "\n"
      << "}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload train|citygen|megacity|serve "
               "--seed N --seconds S --out DIR [--traced] [--setup-only] "
               "[--scale full|smoke] [--perturb-reference]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (flag == "--out" && has_value) {
      args.out = argv[++i];
    } else if (flag == "--scale" && has_value) {
      const std::string scale = argv[++i];
      if (scale != "full" && scale != "smoke") return usage("--scale is full or smoke");
      args.smoke = scale == "smoke";
    } else if (flag == "--traced") {
      args.traced = true;
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--perturb-reference") {
      args.perturb_reference = true;
    } else {
      return usage(("unknown argument " + flag).c_str());
    }
  }
  if (args.out.empty()) return usage("--out is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  const std::function<void(const Args&, Outcome&)>* run = nullptr;
  const std::vector<std::pair<std::string, std::function<void(const Args&, Outcome&)>>>
      workloads = {{"train", run_train},
                   {"citygen", run_citygen},
                   {"megacity", run_megacity},
                   {"serve", run_serve}};
  for (const auto& [name, fn] : workloads) {
    if (name == args.workload) run = &fn;
  }
  if (run == nullptr) return usage("unknown --workload");

  try {
    fs::create_directories(args.out);
    obs::profile_set_enabled(false);
    Outcome outcome;
    (*run)(args, outcome);
    if (args.traced) obs::profile_dump(args.out + "/profile.json");
    write_result(args, outcome, args.out + "/result.json");
    obs::run_manifest_set("seed", std::to_string(args.seed));
    obs::run_manifest_set_string("workload", args.workload);
    obs::write_run_manifest(args.out + "/run.json", "bench_e2e");
    for (const std::string& e : outcome.errors) std::fprintf(stderr, "bench_e2e: %s\n", e.c_str());
    return outcome.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
