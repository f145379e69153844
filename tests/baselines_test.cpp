#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "baselines/conv3d_lstm.h"
#include "baselines/doppelganger.h"
#include "baselines/fdas.h"
#include "baselines/model_api.h"
#include "baselines/pix2pix.h"
#include "util/binio.h"
#include "util/error.h"

namespace spectra::baselines {
namespace {

core::SpectraGanConfig tiny_config() {
  core::SpectraGanConfig config;
  config.train_steps = 48;
  config.spectrum_bins = 8;
  config.hidden_channels = 6;
  config.encoder_mid_channels = 8;
  config.spectrum_mid_channels = 8;
  config.lstm_hidden = 8;
  config.cond_dim = 8;
  config.disc_mlp_hidden = 8;
  config.noise_channels = 2;
  config.iterations = 3;
  config.batch = 2;
  return config;
}

data::CountryDataset tiny_dataset() {
  data::DatasetConfig dc;
  dc.weeks = 1;
  return data::make_country2(dc);
}

TEST(FdasTest, FitsHourlyLognormals) {
  data::CountryDataset dataset = tiny_dataset();
  Fdas model;
  Rng rng(1);
  model.fit(dataset, {0, 1}, 168, rng);
  for (long h = 0; h < 24; ++h) {
    const Fdas::HourlyFit& fit = model.hourly_fit(h);
    EXPECT_TRUE(std::isfinite(fit.mu));
    EXPECT_GT(fit.sigma, 0.0);
    EXPECT_GE(fit.zero_fraction, 0.0);
    EXPECT_LE(fit.zero_fraction, 1.0);
  }
  EXPECT_THROW(model.hourly_fit(24), spectra::Error);
}

TEST(FdasTest, NightHoursFitLowerThanDayHours) {
  data::CountryDataset dataset = tiny_dataset();
  Fdas model;
  Rng rng(2);
  model.fit(dataset, {0, 1, 2, 3}, 168, rng);
  // Log-mean at 4am should be below the busiest evening/midday hours.
  double best_mu = -1e9;
  for (long h = 10; h < 22; ++h) best_mu = std::max(best_mu, model.hourly_fit(h).mu);
  EXPECT_LT(model.hourly_fit(4).mu, best_mu);
}

TEST(FdasTest, GenerateShapesAndBounds) {
  data::CountryDataset dataset = tiny_dataset();
  Fdas model;
  Rng rng(3);
  model.fit(dataset, {0}, 168, rng);
  const geo::CityTensor out = model.generate(dataset.cities[1], 100, rng);
  EXPECT_EQ(out.steps(), 100);
  for (double v : out.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(FdasTest, UnfittedGenerateRejected) {
  data::CountryDataset dataset = tiny_dataset();
  Fdas model;
  Rng rng(4);
  EXPECT_THROW(model.generate(dataset.cities[0], 10, rng), spectra::Error);
}

TEST(FdasTest, NoSpatialStructure) {
  // FDAS cannot reproduce the spatial hotspot layout: correlation between
  // its time-averaged map and the real one should be near zero.
  data::CountryDataset dataset = tiny_dataset();
  Fdas model;
  Rng rng(5);
  model.fit(dataset, {0, 1, 2}, 168, rng);
  const data::City& target = dataset.cities[3];
  const geo::CityTensor out = model.generate(target, 168, rng);
  const geo::GridMap real_avg = target.traffic.time_average();
  const geo::GridMap fake_avg = out.time_average();
  double num = 0.0, da = 0.0, db = 0.0;
  const double ma = real_avg.mean(), mb = fake_avg.mean();
  for (long p = 0; p < real_avg.size(); ++p) {
    num += (real_avg[p] - ma) * (fake_avg[p] - mb);
    da += (real_avg[p] - ma) * (real_avg[p] - ma);
    db += (fake_avg[p] - mb) * (fake_avg[p] - mb);
  }
  const double pcc = num / std::sqrt(da * db + 1e-12);
  EXPECT_LT(std::fabs(pcc), 0.25);
}

TEST(Pix2PixTest, TrainsAndGenerates) {
  data::CountryDataset dataset = tiny_dataset();
  Pix2Pix model(tiny_config());
  Rng rng(6);
  model.fit(dataset, {0, 1}, 48, rng);
  const geo::CityTensor out = model.generate(dataset.cities[2], 20, rng);
  EXPECT_EQ(out.steps(), 20);
  EXPECT_EQ(out.height(), dataset.cities[2].height());
  for (double v : out.values()) EXPECT_GE(v, 0.0);
}

TEST(DoppelGangerTest, TrainsAndGenerates) {
  data::CountryDataset dataset = tiny_dataset();
  DoppelGanger model(tiny_config());
  Rng rng(7);
  model.fit(dataset, {0}, 48, rng);
  const geo::CityTensor out = model.generate(dataset.cities[1], 30, rng);
  EXPECT_EQ(out.steps(), 30);
  for (double v : out.values()) EXPECT_GE(v, 0.0);
}

// Golden digest of a small DoppelGANger city: fitting trains both LSTMs
// through the sequence op's backward, generation runs it under
// InferenceGuard, and the output bits must stay those the per-step graph
// produced when this case was recorded (FNV-1a 64 of the city's
// doubles). The city spans three 128-pixel generation chunks, the last
// one partial.
TEST(DoppelGangerTest, GeneratedCityMatchesGoldenDigest) {
  data::CountryDataset dataset = tiny_dataset();
  DoppelGanger model(tiny_config());
  Rng rng(7);
  model.fit(dataset, {0}, 48, rng);
  const geo::CityTensor out = model.generate(dataset.cities[1], 48, rng);
  const std::vector<double>& values = out.values();
  ASSERT_EQ(values.size(), 15504u);
  const std::span<const std::uint8_t> bytes(reinterpret_cast<const std::uint8_t*>(values.data()),
                                            values.size() * sizeof(double));
  EXPECT_EQ(binio::fnv1a64(bytes), 0x8d153c20d65b73b6ULL);
}

TEST(Conv3dLstmTest, TrainsAndGenerates) {
  data::CountryDataset dataset = tiny_dataset();
  Conv3dLstm model(tiny_config());
  Rng rng(8);
  model.fit(dataset, {0}, 48, rng);
  const geo::CityTensor out = model.generate(dataset.cities[1], 24, rng);
  EXPECT_EQ(out.steps(), 24);
  for (double v : out.values()) EXPECT_GE(v, 0.0);
}

TEST(ModelApiTest, FactoryKnowsEveryPaperMethod) {
  const core::SpectraGanConfig config = tiny_config();
  for (const char* name : {"SpectraGAN", "SpectraGAN-", "Spec-only", "Time-only", "Time-only+",
                           "FDAS", "Pix2Pix", "DoppelGANger", "Conv{3D+LSTM}"}) {
    std::unique_ptr<TrafficGenerator> model = make_model(name, config);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), name);
  }
  EXPECT_THROW(make_model("GPT-4", config), spectra::Error);
}

TEST(ModelApiTest, SpectraGanThroughApiRoundTrip) {
  data::CountryDataset dataset = tiny_dataset();
  core::SpectraGanConfig config = tiny_config();
  std::unique_ptr<TrafficGenerator> model = make_spectragan(config);
  Rng rng(9);
  EXPECT_THROW(model->generate(dataset.cities[0], 48, rng), spectra::Error);  // unfitted
  model->fit(dataset, {0, 1}, 48, rng);
  const geo::CityTensor out = model->generate(dataset.cities[2], 96, rng);
  EXPECT_EQ(out.steps(), 96);
}

}  // namespace
}  // namespace spectra::baselines
