// Shared plumbing for the per-table/figure bench binaries: dataset and
// evaluation configuration from env knobs (DESIGN.md §6), the shared
// generation cache, and fold-subset selection for the expensive sweeps.
//
// Env knobs:
//   SPECTRA_SEED    master dataset/eval seed (default 99)
//   SPECTRA_EPOCHS  GAN training iterations (default 400)
//   SPECTRA_FOLDS   leave-one-city-out folds to run (default: all for the
//                   headline tables; ablation benches default to 3)
//   SPECTRA_CACHE   generation cache directory (default ./spectra_cache)

#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_report.h"
#include "core/variants.h"
#include "data/dataset.h"
#include "eval/protocol.h"
#include "eval/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/log.h"

namespace spectra::bench {

inline data::DatasetConfig dataset_config() {
  data::DatasetConfig config;
  config.weeks = 6;
  config.minutes_per_step = 60;
  config.seed = static_cast<std::uint64_t>(env_long("SPECTRA_SEED", 99));
  config.size_scale = env_double("SPECTRA_SCALE", 1.0);
  return config;
}

inline core::SpectraGanConfig base_model_config() {
  core::SpectraGanConfig config = core::default_config();
  config.iterations = env_long("SPECTRA_EPOCHS", config.iterations);
  return config;
}

inline eval::EvalConfig eval_config(long minutes_per_step = 60) {
  eval::EvalConfig config = eval::default_eval_config(minutes_per_step);
  if (config.cache_dir.empty()) config.cache_dir = "spectra_cache";
  return config;
}

// First `max_default` folds unless SPECTRA_FOLDS overrides (0 = all).
inline std::vector<data::Fold> select_folds(const data::CountryDataset& dataset,
                                            long max_default) {
  std::vector<data::Fold> folds = data::leave_one_city_out(dataset);
  long keep = env_long("SPECTRA_FOLDS", max_default);
  if (keep <= 0 || keep > static_cast<long>(folds.size())) {
    keep = static_cast<long>(folds.size());
  }
  folds.resize(static_cast<std::size_t>(keep));
  return folds;
}

// Sweep a list of methods over folds, returning per-(method, city) rows
// plus the DATA reference per city.
inline std::vector<eval::MetricRow> run_sweep(const data::CountryDataset& dataset,
                                              const std::vector<data::Fold>& folds,
                                              const std::vector<std::string>& methods,
                                              const core::SpectraGanConfig& base,
                                              const eval::EvalConfig& config) {
  std::vector<eval::MetricRow> rows;
  for (const data::Fold& fold : folds) {
    const data::City& city = dataset.cities[fold.test_index];
    for (const std::string& method : methods) {
      const geo::CityTensor synthetic =
          eval::generate_for_fold(method, base, dataset, fold, config);
      rows.push_back(eval::compute_metrics(method, city, synthetic, config));
    }
    rows.push_back(eval::data_reference_row(city, config));
  }
  return rows;
}

// Run `fn` exactly once under google-benchmark timing (experiment sweeps
// are too expensive to repeat, and their results are cached in statics).
template <typename Fn>
void run_once(::benchmark::State& state, Fn&& fn) {
  for (auto _ : state) {
    fn();
  }
}

}  // namespace spectra::bench

// BENCHMARK_MAIN-style entry with a post-run report hook: REPORT() runs
// after the timed benchmarks and prints the paper-style tables; the
// shared bench_report teardown (run name and manifest) runs last.
#define SG_BENCH_MAIN(REPORT)                                   \
  int main(int argc, char** argv) {                             \
    ::benchmark::Initialize(&argc, argv);                       \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) { \
      return 1;                                                 \
    }                                                           \
    ::benchmark::RunSpecifiedBenchmarks();                      \
    REPORT();                                                   \
    ::spectra::bench::bench_report(argv[0]);                    \
    ::benchmark::Shutdown();                                    \
    return 0;                                                   \
  }
