#include "eval/protocol.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>

#include "metrics/autocorr_l1.h"
#include "metrics/fvd.h"
#include "metrics/marginal.h"
#include "metrics/ssim.h"
#include "metrics/tstr.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/binio.h"
#include "util/env.h"
#include "util/error.h"
#include "util/log.h"

namespace spectra::eval {

EvalConfig default_eval_config(long minutes_per_step) {
  SG_CHECK(minutes_per_step > 0 && 60 % minutes_per_step == 0, "invalid granularity");
  const long scale = 60 / minutes_per_step;
  EvalConfig config;
  config.train_steps *= scale;
  config.generate_steps *= scale;
  config.eval_offset *= scale;
  config.autocorr_max_lag *= scale;
  config.seed = static_cast<std::uint64_t>(env_long("SPECTRA_SEED", 99));
  config.cache_dir = env_string("SPECTRA_CACHE", "");
  return config;
}

MetricRow compute_metrics(const std::string& method, const data::City& city,
                          const geo::CityTensor& synthetic, const EvalConfig& config) {
  SG_CHECK(city.steps() >= config.eval_offset + config.generate_steps,
           "city has too little real data for the evaluation window");
  const geo::CityTensor real_eval = city.traffic.slice_time(config.eval_offset, config.generate_steps);

  MetricRow row;
  row.method = method;
  row.city = city.name;
  row.m_tv = metrics::marginal_tv(real_eval, synthetic);
  row.ssim = metrics::ssim(real_eval.time_average(), synthetic.time_average());
  row.ac_l1 = metrics::autocorr_l1(real_eval, synthetic, config.autocorr_max_lag);
  row.tstr = metrics::tstr_r2(synthetic, real_eval);
  if (config.compute_fvd) {
    metrics::FvdConfig fvd_config;
    fvd_config.window = 2 * EvalConfig::steps_per_day(city);
    fvd_config.stride = EvalConfig::steps_per_day(city) / 2;
    row.fvd = metrics::fvd(real_eval, synthetic, fvd_config);
  } else {
    row.fvd = std::nan("");
  }
  return row;
}

MetricRow data_reference_row(const data::City& city, const EvalConfig& config) {
  // Two distinct 3-week periods of real data (§3.3): the evaluation
  // window vs the window starting where it ends (wrapping to the start if
  // the tail is too short).
  const long first = config.eval_offset;
  long second = first + config.generate_steps;
  if (second + config.generate_steps > city.steps()) second = 0;
  SG_CHECK(second + config.generate_steps <= city.steps(),
           "not enough real data for the DATA reference");
  const geo::CityTensor other = city.traffic.slice_time(second, config.generate_steps);
  return compute_metrics("Data", city, other, config);
}

namespace {

constexpr std::uint32_t kTensorMagic = 0x53475354;  // "SGST"
// u32 magic, then the i64 steps, height and width.
constexpr std::streamoff kTensorHeaderBytes = 4 + 3 * 8;

std::string sanitize(const std::string& s) {
  std::string out;
  for (char c : s) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

std::string cache_path(const std::string& cache_dir, const std::string& model,
                       const data::CountryDataset& dataset, const data::City& city,
                       const EvalConfig& config, const core::SpectraGanConfig& base_config) {
  return cache_dir + "/" + sanitize(dataset.name) + "_" + sanitize(city.name) + "_" +
         sanitize(model) + "_t" + std::to_string(config.generate_steps) + "_it" +
         std::to_string(base_config.iterations) + "_s" + std::to_string(config.seed) + ".sgt";
}

}  // namespace

void save_city_tensor(const std::string& path, const geo::CityTensor& tensor) {
  binio::Writer header;
  header.put(kTensorMagic);
  const std::int64_t dims[3] = {tensor.steps(), tensor.height(), tensor.width()};
  header.put_array(dims, 3);
  binio::write_file_atomic(path, std::as_bytes(std::span(header.bytes())),
                           std::as_bytes(std::span(tensor.values())));
}

std::optional<geo::CityTensor> load_city_tensor(const std::string& path) {
  // Only the header is buffered; the payload is read straight into the
  // tensor.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff file_bytes = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  std::array<std::uint8_t, kTensorHeaderBytes> header{};
  if (file_bytes < kTensorHeaderBytes ||
      !in.seekg(0).read(reinterpret_cast<char*>(header.data()), kTensorHeaderBytes)) {
    return std::nullopt;
  }
  binio::Reader<> r(header);
  if (r.get<std::uint32_t>() != kTensorMagic) return std::nullopt;
  std::array<long, 3> extents{};
  for (long& extent : extents) extent = r.get<std::int64_t>();
  // The dims are untrusted: a bad extent, an overflowing product or a
  // payload that is not exactly product × 8 bytes is a cache miss, checked
  // before anything is allocated.
  const std::size_t payload = static_cast<std::size_t>(file_bytes - kTensorHeaderBytes);
  const std::optional<std::size_t> count = binio::fitting_count<double>(extents, payload);
  if (!count || *count * sizeof(double) != payload) return std::nullopt;
  geo::CityTensor tensor(extents[0], extents[1], extents[2]);
  if (!in.read(reinterpret_cast<char*>(tensor.values().data()),
               static_cast<std::streamsize>(payload))) {
    return std::nullopt;
  }
  return tensor;
}

geo::CityTensor generate_for_fold(const std::string& model_name,
                                  const core::SpectraGanConfig& base_config,
                                  const data::CountryDataset& dataset, const data::Fold& fold,
                                  const EvalConfig& config) {
  static obs::Counter& cache_hits = obs::Registry::instance().counter("eval.cache.hits");
  static obs::Counter& cache_misses = obs::Registry::instance().counter("eval.cache.misses");
  static obs::Counter& cache_writes = obs::Registry::instance().counter("eval.cache.writes");
  static obs::Counter& cache_write_bytes =
      obs::Registry::instance().counter("eval.cache.write_bytes");

  const data::City& target = dataset.cities.at(fold.test_index);

  std::string path;
  if (!config.cache_dir.empty()) {
    std::filesystem::create_directories(config.cache_dir);
    path = cache_path(config.cache_dir, model_name, dataset, target, config, base_config);
    if (std::optional<geo::CityTensor> cached = load_city_tensor(path)) {
      cache_hits.inc();
      SG_LOG_INFO << "cache hit: " << path;
      return std::move(*cached);
    }
    cache_misses.inc();
    SG_LOG_INFO << "cache miss: " << path;
  }

  Rng rng(config.seed ^ (fold.test_index * 0x9e3779b9ULL) ^
          std::hash<std::string>{}(model_name));
  std::unique_ptr<baselines::TrafficGenerator> model =
      baselines::make_model(model_name, base_config);
  SG_LOG_INFO << "training " << model_name << " for held-out " << target.name;
  {
    SG_PROFILE_SCOPE("eval/fold_train");
    model->fit(dataset, fold.train_indices, config.train_steps, rng);
  }
  geo::CityTensor synthetic;
  {
    SG_PROFILE_SCOPE("eval/fold_generate");
    synthetic = model->generate(target, config.generate_steps, rng);
  }

  if (!path.empty()) {
    save_city_tensor(path, synthetic);
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    cache_writes.inc();
    if (!ec) cache_write_bytes.inc(static_cast<std::uint64_t>(bytes));
    SG_LOG_INFO << "cache write: " << path << " (" << (ec ? 0 : bytes) << " bytes)";
  }
  return synthetic;
}

std::vector<MetricRow> average_by_method(const std::vector<MetricRow>& rows) {
  std::vector<MetricRow> averaged;
  for (const MetricRow& row : rows) {
    MetricRow* bucket = nullptr;
    for (MetricRow& existing : averaged) {
      if (existing.method == row.method) bucket = &existing;
    }
    if (bucket == nullptr) {
      MetricRow fresh;
      fresh.method = row.method;
      fresh.city = "average";
      averaged.push_back(fresh);
      bucket = &averaged.back();
    }
    bucket->m_tv += row.m_tv;
    bucket->ssim += row.ssim;
    bucket->ac_l1 += row.ac_l1;
    bucket->tstr += row.tstr;
    bucket->fvd += row.fvd;
  }
  for (MetricRow& bucket : averaged) {
    long count = 0;
    for (const MetricRow& row : rows) {
      if (row.method == bucket.method) ++count;
    }
    const double inv = 1.0 / static_cast<double>(count);
    bucket.m_tv *= inv;
    bucket.ssim *= inv;
    bucket.ac_l1 *= inv;
    bucket.tstr *= inv;
    bucket.fvd *= inv;
  }
  return averaged;
}

}  // namespace spectra::eval
