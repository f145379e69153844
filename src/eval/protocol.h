// The leave-one-city-out evaluation protocol of §4.1: train each model on
// all cities but one, generate 3 weeks of traffic for the held-out city
// from its context alone, and score fidelity against the real data with
// the §3.2 metric bundle.
//
// Because the same fold/model generations feed many tables (2, 3, 7, 8,
// Figs. 7-11), generated tensors are cached on disk keyed by
// (dataset, city, model, horizon, seed); set SPECTRA_CACHE to a directory
// to enable (the bench harness does this by default).

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "baselines/model_api.h"
#include "data/dataset.h"

namespace spectra::eval {

struct EvalConfig {
  long train_steps = 168;     // train on week 1 (hourly)
  long generate_steps = 504;  // generate 3 weeks
  long eval_offset = 168;     // score against real weeks 2-4
  long autocorr_max_lag = 168;
  bool compute_fvd = true;
  std::uint64_t seed = 99;
  std::string cache_dir;  // empty disables the generation cache

  // Steps spanned by one day for a given city granularity.
  static long steps_per_day(const data::City& city) { return 24 * 60 / city.minutes_per_step; }
};

// EvalConfig scaled to a dataset's granularity (hourly defaults above are
// multiplied for 30/15-min data) with cache dir from SPECTRA_CACHE.
EvalConfig default_eval_config(long minutes_per_step = 60);

struct MetricRow {
  std::string method;
  std::string city;
  double m_tv = 0.0;
  double ssim = 0.0;
  double ac_l1 = 0.0;
  double tstr = 0.0;
  double fvd = 0.0;  // NaN when FVD disabled
};

// Score a generated tensor against the real evaluation window.
MetricRow compute_metrics(const std::string& method, const data::City& city,
                          const geo::CityTensor& synthetic, const EvalConfig& config);

// The DATA reference: two distinct 3-week periods of real data compared
// against each other (§3.3).
MetricRow data_reference_row(const data::City& city, const EvalConfig& config);

// Train (or load from cache) and generate synthetic traffic for one fold.
geo::CityTensor generate_for_fold(const std::string& model_name,
                                  const core::SpectraGanConfig& base_config,
                                  const data::CountryDataset& dataset, const data::Fold& fold,
                                  const EvalConfig& config);

// Mean of rows sharing the method name (the per-country averages of
// Tables 2-5).
std::vector<MetricRow> average_by_method(const std::vector<MetricRow>& rows);

// Binary CityTensor (de)serialization used by the cache and by examples
// (.sgt: u32 "SGST" magic, i64 steps, height, width, then the f64 values).
// save replaces `path` atomically; load returns nullopt for a missing or
// malformed file.
void save_city_tensor(const std::string& path, const geo::CityTensor& tensor);
std::optional<geo::CityTensor> load_city_tensor(const std::string& path);

}  // namespace spectra::eval
