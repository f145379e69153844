#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "eval/protocol.h"
#include "eval/report.h"
#include "util/binio.h"
#include "util/error.h"

namespace spectra::eval {
namespace {

data::CountryDataset small_dataset() {
  data::DatasetConfig dc;
  dc.weeks = 6;
  return data::make_country2(dc);
}

EvalConfig small_eval() {
  EvalConfig config;
  config.train_steps = 48;
  config.generate_steps = 96;
  config.eval_offset = 48;
  config.autocorr_max_lag = 48;
  config.seed = 5;
  return config;
}

TEST(EvalConfigTest, GranularityScaling) {
  const EvalConfig hourly = default_eval_config(60);
  const EvalConfig quarter = default_eval_config(15);
  EXPECT_EQ(hourly.train_steps, 168);
  EXPECT_EQ(quarter.train_steps, 4 * 168);
  EXPECT_EQ(quarter.generate_steps, 4 * 504);
  EXPECT_THROW(default_eval_config(7), spectra::Error);
}

TEST(EvalTest, SelfComparisonIsNearOptimal) {
  const data::CountryDataset dataset = small_dataset();
  const EvalConfig config = small_eval();
  const data::City& city = dataset.cities[0];
  const geo::CityTensor self = city.traffic.slice_time(config.eval_offset, config.generate_steps);
  const MetricRow row = compute_metrics("self", city, self, config);
  EXPECT_NEAR(row.m_tv, 0.0, 1e-9);
  EXPECT_NEAR(row.ssim, 1.0, 1e-9);
  EXPECT_NEAR(row.ac_l1, 0.0, 1e-9);
  EXPECT_GT(row.tstr, 0.5);
  EXPECT_NEAR(row.fvd, 0.0, 1e-6);
}

TEST(EvalTest, DataReferenceRowIsStrong) {
  const data::CountryDataset dataset = small_dataset();
  const EvalConfig config = small_eval();
  const MetricRow row = data_reference_row(dataset.cities[1], config);
  EXPECT_EQ(row.method, "Data");
  EXPECT_LT(row.m_tv, 0.1);
  EXPECT_GT(row.ssim, 0.9);
}

TEST(EvalTest, FvdCanBeDisabled) {
  const data::CountryDataset dataset = small_dataset();
  EvalConfig config = small_eval();
  config.compute_fvd = false;
  const MetricRow row = data_reference_row(dataset.cities[0], config);
  EXPECT_TRUE(std::isnan(row.fvd));
}

TEST(EvalTest, AverageByMethod) {
  MetricRow a{"m1", "c1", 0.2, 0.8, 10.0, 0.9, 100.0};
  MetricRow b{"m1", "c2", 0.4, 0.6, 20.0, 0.7, 200.0};
  MetricRow c{"m2", "c1", 1.0, 0.1, 99.0, 0.0, 999.0};
  const std::vector<MetricRow> averaged = average_by_method({a, b, c});
  ASSERT_EQ(averaged.size(), 2u);
  EXPECT_EQ(averaged[0].method, "m1");
  EXPECT_NEAR(averaged[0].m_tv, 0.3, 1e-12);
  EXPECT_NEAR(averaged[0].ssim, 0.7, 1e-12);
  EXPECT_NEAR(averaged[1].ac_l1, 99.0, 1e-12);
}

TEST(EvalTest, CityTensorRoundTrip) {
  geo::CityTensor t(3, 4, 5);
  Rng rng(9);
  for (double& v : t.values()) v = rng.uniform(0, 1);
  const std::string path = testing::TempDir() + "/sg_city_tensor.sgt";
  save_city_tensor(path, t);
  const std::optional<geo::CityTensor> back = load_city_tensor(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->steps(), 3);
  EXPECT_EQ(back->width(), 5);
  EXPECT_EQ(back->values(), t.values());
  EXPECT_FALSE(load_city_tensor("/nonexistent.sgt").has_value());
}

// A fixed city of exactly representable values, compared with the size
// and FNV-1a 64 digest the .sgt format had when this case was recorded:
// fails if any header field's width or order changes.
TEST(EvalTest, CityTensorBytesArePinned) {
  geo::CityTensor t(2, 2, 3);
  for (long i = 0; i < t.size(); ++i) t[i] = 0.25 * static_cast<double>(i) - 1.0;
  const std::string path = testing::TempDir() + "/sg_pinned.sgt";
  save_city_tensor(path, t);
  const binio::Bytes bytes = binio::read_file(path);
  EXPECT_EQ(bytes.size(), 124u);
  EXPECT_EQ(binio::fnv1a64(bytes), 0xcba6ee45f41f9aacULL);
}

// Writes an .sgt file with the given header dims and `payload_doubles`
// doubles of payload (plus `extra_bytes` trailing bytes).
std::string write_sgt(const std::string& name, std::int64_t d0, std::int64_t d1, std::int64_t d2,
                      long payload_doubles, long extra_bytes = 0) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  const std::uint32_t magic = 0x53475354;  // "SGST"
  const std::int64_t dims[3] = {d0, d1, d2};
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  const std::vector<double> payload(static_cast<std::size_t>(payload_doubles), 0.5);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() * sizeof(double)));
  const std::vector<char> extra(static_cast<std::size_t>(extra_bytes), 'x');
  out.write(extra.data(), static_cast<std::streamsize>(extra.size()));
  return path;
}

TEST(EvalTest, LoadCityTensorAcceptsExactPayload) {
  const std::optional<geo::CityTensor> t = load_city_tensor(write_sgt("exact.sgt", 2, 3, 4, 24));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size(), 24);
  EXPECT_EQ(t->values().back(), 0.5);
}

TEST(EvalTest, LoadCityTensorRejectsNegativeDim) {
  EXPECT_FALSE(load_city_tensor(write_sgt("negative.sgt", 2, -3, 4, 24)).has_value());
  EXPECT_FALSE(load_city_tensor(write_sgt("negative0.sgt", -1, 0, 4, 0)).has_value());
}

TEST(EvalTest, LoadCityTensorRejectsOverflowingProduct) {
  const std::int64_t big = std::int64_t{1} << 40;
  EXPECT_FALSE(load_city_tensor(write_sgt("overflow.sgt", big, big, 1, 4)).has_value());
  EXPECT_FALSE(load_city_tensor(write_sgt("overflow3.sgt", 1 << 22, 1 << 22, 1 << 22, 4))
                   .has_value());
}

TEST(EvalTest, LoadCityTensorRejectsTruncatedPayload) {
  EXPECT_FALSE(load_city_tensor(write_sgt("truncated.sgt", 2, 3, 4, 23)).has_value());
  EXPECT_FALSE(load_city_tensor(write_sgt("truncated_byte.sgt", 2, 3, 4, 23, 7)).has_value());
}

TEST(EvalTest, LoadCityTensorRejectsTrailingBytes) {
  EXPECT_FALSE(load_city_tensor(write_sgt("trailing.sgt", 2, 3, 4, 24, 1)).has_value());
  EXPECT_FALSE(load_city_tensor(write_sgt("trailing_double.sgt", 2, 3, 4, 25)).has_value());
}

TEST(EvalTest, CityTensorRejectsBadExtentsBeforeAllocating) {
  EXPECT_THROW(geo::CityTensor(-1, 2, 2), spectra::Error);
  EXPECT_THROW(geo::CityTensor(1L << 40, 1L << 40, 1), spectra::Error);
  EXPECT_EQ(binio::checked_count(std::array<long, 3>{0, 5, 7}), 0);
  EXPECT_EQ(binio::checked_count(std::array<long, 3>{3, 4, 5}), 60);
  EXPECT_FALSE(binio::checked_count(std::array<long, 3>{1L << 62, 4, 1}).has_value());
}

TEST(EvalTest, GenerateForFoldUsesCache) {
  const data::CountryDataset dataset = small_dataset();
  EvalConfig config = small_eval();
  const std::string cache = testing::TempDir() + "/sg_cache_test";
  std::filesystem::remove_all(cache);
  config.cache_dir = cache;

  core::SpectraGanConfig base;
  base.iterations = 2;
  base.batch = 2;
  base.train_steps = config.train_steps;
  base.spectrum_bins = 8;
  base.hidden_channels = 6;
  base.encoder_mid_channels = 8;
  base.spectrum_mid_channels = 8;
  base.lstm_hidden = 8;
  base.cond_dim = 8;
  base.disc_mlp_hidden = 8;

  const data::Fold fold{0, {1, 2, 3}};
  const geo::CityTensor first = generate_for_fold("FDAS", base, dataset, fold, config);
  EXPECT_EQ(first.steps(), config.generate_steps);
  // Second call must come from cache and match bit-for-bit.
  const geo::CityTensor second = generate_for_fold("FDAS", base, dataset, fold, config);
  EXPECT_EQ(first.values(), second.values());
  std::filesystem::remove_all(cache);
}

TEST(ReportTest, MetricsTableLayout) {
  MetricRow row{"SpectraGAN", "CITY A", 0.0362, 0.787, 46.8, 0.893, 205.0};
  const CsvWriter with_fvd = metrics_table({row}, true);
  EXPECT_EQ(with_fvd.header().size(), 6u);
  const CsvWriter with_city = metrics_table({row}, false, true);
  EXPECT_EQ(with_city.header()[0], "City");
  EXPECT_EQ(with_city.rows()[0][0], "CITY A");
}

TEST(ReportTest, NanFvdRendersDash) {
  MetricRow row{"X", "c", 0.1, 0.5, 1.0, 0.5, std::nan("")};
  const CsvWriter table = metrics_table({row}, true);
  EXPECT_EQ(table.rows()[0].back(), "-");
}

TEST(ReportTest, AsciiMapDimensions) {
  geo::GridMap m(3, 5);
  m.at(1, 2) = 1.0;
  const std::string art = ascii_map(m);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 3);
  EXPECT_NE(art.find('@'), std::string::npos);
}

TEST(ReportTest, PgmWriterProducesValidHeaderAndSize) {
  geo::GridMap m(3, 4);
  m.at(1, 2) = 1.0;
  const std::string path = testing::TempDir() + "/sg_map.pgm";
  ASSERT_TRUE(write_pgm(m, path));
  std::ifstream in(path, std::ios::binary);
  std::string magic, dims1, dims2, maxval;
  in >> magic >> dims1 >> dims2 >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(dims1, "4");
  EXPECT_EQ(dims2, "3");
  EXPECT_EQ(maxval, "255");
  in.get();  // single whitespace after header
  std::vector<unsigned char> pixels(12);
  in.read(reinterpret_cast<char*>(pixels.data()), 12);
  ASSERT_TRUE(static_cast<bool>(in));
  EXPECT_EQ(pixels[1 * 4 + 2], 255);  // the peak pixel
  EXPECT_EQ(pixels[0], 0);
  EXPECT_FALSE(write_pgm(m, "/nonexistent_dir/x.pgm"));
}

TEST(ReportTest, SeriesTables) {
  const CsvWriter single = series_table({1.0, 2.0}, "traffic");
  EXPECT_EQ(single.rows().size(), 2u);
  const CsvWriter multi = multi_series_table({"a", "b"}, {{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(multi.header().size(), 3u);
  EXPECT_EQ(multi.rows()[1][2], "4");
  EXPECT_THROW(multi_series_table({"a"}, {{1.0}, {2.0}}), spectra::Error);
}

}  // namespace
}  // namespace spectra::eval
