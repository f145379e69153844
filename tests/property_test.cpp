// Property-style sweeps across random seeds and geometries: autograd
// gradients on randomly composed graphs, FFT/expansion invariants under
// random signals, patch sewing invariants, and dataset statistical
// properties that the traffic process must satisfy for any seed.

#include <gtest/gtest.h>

#include <cmath>

#include "core/fourier_bridge.h"
#include "data/city.h"
#include "dsp/expansion.h"
#include "dsp/fft.h"
#include "geo/patching.h"
#include "geo/strip_accumulator.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace spectra {
namespace {

// ---------- randomized gradient checks over seeds ----------

class SeededGradientTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededGradientTest, ComposedGraphGradientsMatchFiniteDifference) {
  Rng rng(GetParam());
  nn::Tensor a_init = nn::init::gaussian({3, 4}, 1.0f, rng);
  nn::Tensor b_init = nn::init::gaussian({4, 2}, 1.0f, rng);

  auto loss_of = [](const nn::Tensor& a, const nn::Tensor& b, nn::Var* grad_a) {
    nn::Var va = grad_a != nullptr ? nn::Var::leaf(a) : nn::Var::constant(a);
    nn::Var vb = nn::Var::constant(b);
    // A little bit of everything smooth: matmul, tanh, sigmoid, scaling,
    // concat, reductions.
    nn::Var m = nn::matmul(va, vb);                 // [3,2]
    nn::Var t = nn::vtanh(m);
    nn::Var s = nn::sigmoid(nn::mul_scalar(m, 0.5f));
    nn::Var c = nn::concat_axis({t, s}, 1);         // [3,4]
    nn::Var loss = nn::mean(nn::mul(c, c));
    if (grad_a != nullptr) {
      loss.backward();
      *grad_a = va;
    }
    return loss.value()[0];
  };

  nn::Var leaf;
  loss_of(a_init, b_init, &leaf);
  const float eps = 1e-2f;
  for (long i = 0; i < a_init.numel(); ++i) {
    nn::Tensor plus = a_init, minus = a_init;
    plus[i] += eps;
    minus[i] -= eps;
    const float numeric = (loss_of(plus, b_init, nullptr) - loss_of(minus, b_init, nullptr)) /
                          (2.0f * eps);
    EXPECT_NEAR(leaf.grad()[i], numeric, 2e-2f * std::max(1.0f, std::fabs(numeric)))
        << "seed " << GetParam() << " element " << i;
  }
}

TEST_P(SeededGradientTest, LstmGradientFlowsToInputs) {
  Rng rng(GetParam() ^ 0xAA);
  const nn::Lstm lstm(3 + 2, 5, 1, rng);
  nn::Var series = nn::Var::leaf(nn::init::gaussian({2, 3, 3}, 1.0f, rng));
  // cond feeds all three steps: its gradient accumulates over steps.
  nn::Var cond = nn::Var::leaf(nn::init::gaussian({2, 2}, 1.0f, rng));
  nn::Var out = lstm.critique(series, cond, /*stride=*/1);
  nn::Var loss = nn::mean(nn::mul(out, out));
  loss.backward();
  for (const nn::Var* input : {&series, &cond}) {
    float grad_norm = 0.0f;
    for (long i = 0; i < input->grad().numel(); ++i) grad_norm += std::fabs(input->grad()[i]);
    EXPECT_GT(grad_norm, 0.0f);
    EXPECT_FALSE(input->grad().has_nonfinite());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededGradientTest, testing::Values(1ULL, 2ULL, 3ULL, 5ULL, 8ULL));

// ---------- FFT / expansion invariants over random signals ----------

class SignalSweepTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SignalSweepTest, RfftIrfftRoundTripRandomSignal) {
  Rng rng(GetParam());
  const long n = 24 + static_cast<long>(rng.uniform_index(200));
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.uniform(-3, 3);
  const std::vector<double> back = dsp::irfft(dsp::rfft(x), n);
  for (long i = 0; i < n; ++i) {
    EXPECT_NEAR(back[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)], 1e-8);
  }
}

TEST_P(SignalSweepTest, ExpansionPreservesWindowMean) {
  // The DC bin carries the mean; after expansion the long signal's mean
  // must equal the base window's mean for any signal.
  Rng rng(GetParam() ^ 0x77);
  const long base_t = 48;
  const long k = 2 + static_cast<long>(rng.uniform_index(3));
  std::vector<double> x(static_cast<std::size_t>(base_t));
  for (double& v : x) v = rng.uniform(0, 1);
  double base_mean = 0.0;
  for (double v : x) base_mean += v;
  base_mean /= static_cast<double>(base_t);

  const std::vector<double> longer = dsp::synthesize_expanded(dsp::rfft(x), base_t, k);
  double long_mean = 0.0;
  for (double v : longer) long_mean += v;
  long_mean /= static_cast<double>(longer.size());
  EXPECT_NEAR(long_mean, base_mean, 1e-9);
}

TEST_P(SignalSweepTest, BridgeConsistentWithExpansionPath) {
  // irfft_bridge(spec, T, k) must equal irfft(expand(T*spec), k*T) bin for
  // bin — the two public code paths for long-horizon synthesis.
  Rng rng(GetParam() ^ 0x99);
  const long T = 24;
  const long f_gen = 13;  // full band for T=24
  const long k = 3;
  nn::Tensor spec = nn::init::gaussian({1, 2 * f_gen, 1}, 1.0f, rng);
  spec[1] = 0.0f;                    // im(DC) unused
  spec[2 * (f_gen - 1) + 1] = 0.0f;  // im(Nyquist) unused

  nn::Var bridged = core::irfft_bridge(nn::Var::constant(spec), T, k);

  std::vector<dsp::Complex> base(static_cast<std::size_t>(f_gen));
  for (long i = 0; i < f_gen; ++i) {
    base[static_cast<std::size_t>(i)] =
        dsp::Complex(spec[2 * i], spec[2 * i + 1]) * static_cast<double>(T);
  }
  const std::vector<double> reference = dsp::synthesize_expanded(base, T, k);
  for (long t = 0; t < k * T; ++t) {
    EXPECT_NEAR(bridged.value()[t], reference[static_cast<std::size_t>(t)], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Signals, SignalSweepTest,
                         testing::Values(11ULL, 13ULL, 17ULL, 19ULL, 23ULL));

// ---------- patch sewing invariants over random geometries ----------

class SewingSweepTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SewingSweepTest, ConstantFieldSurvivesOverlapAveraging) {
  Rng rng(GetParam());
  const long h = 8 + static_cast<long>(rng.uniform_index(20));
  const long w = 8 + static_cast<long>(rng.uniform_index(20));
  geo::PatchSpec spec;
  spec.stride = 1 + static_cast<long>(rng.uniform_index(4));
  const double value = rng.uniform(0.1, 5.0);

  geo::CityTensorSink sink(2, h, w);
  geo::StripAccumulator acc(2, h, w, sink);
  const std::vector<float> patch(static_cast<std::size_t>(2 * 16), static_cast<float>(value));
  for (const geo::PatchWindow& window : geo::enumerate_windows(h, w, spec)) {
    acc.add_patch(window, spec, patch);
  }
  acc.finish();
  const geo::CityTensor out = sink.take();
  for (long t = 0; t < 2; ++t) {
    for (long p = 0; p < h * w; ++p) {
      EXPECT_NEAR(out[t * h * w + p], value, 1e-6 * value);  // float patch storage
    }
  }
}

TEST_P(SewingSweepTest, ExtractThenSewRecoversFieldWhenPatchesAgree) {
  // When every patch carries the true field values, overlap-averaging is
  // exact — the identity behind Eq. 2's consistency.
  Rng rng(GetParam() ^ 0x1234);
  const long h = 10 + static_cast<long>(rng.uniform_index(8));
  const long w = 10 + static_cast<long>(rng.uniform_index(8));
  geo::CityTensor field(3, h, w);
  for (double& v : field.values()) v = rng.uniform(0, 1);

  geo::PatchSpec spec;
  spec.stride = 2;
  geo::CityTensorSink sink(3, h, w);
  geo::StripAccumulator acc(3, h, w, sink);
  for (const geo::PatchWindow& window : geo::enumerate_windows(h, w, spec)) {
    acc.add_patch(window, spec, geo::extract_traffic_patch(field, window, spec));
  }
  acc.finish();
  const geo::CityTensor out = sink.take();
  for (long i = 0; i < field.size(); ++i) {
    EXPECT_NEAR(out[i], field[i], 1e-6);  // float patch storage
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, SewingSweepTest,
                         testing::Values(31ULL, 37ULL, 41ULL, 43ULL));

// ---------- traffic-process invariants over seeds ----------

class ProcessSweepTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ProcessSweepTest, AnySeedYieldsValidCity) {
  Rng rng(GetParam());
  const data::City city = data::make_city("sweep", 13, 15, 1, 60, data::country1_params(), rng);
  EXPECT_NEAR(city.traffic.peak(), 1.0, 1e-12);
  for (double v : city.traffic.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Context channels normalized and complete.
  EXPECT_EQ(city.context.steps(), data::kNumContextChannels);
  for (double v : city.context.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

TEST_P(ProcessSweepTest, NightTrafficBelowDayTraffic) {
  Rng rng(GetParam() ^ 0x55);
  const data::City city = data::make_city("sweep2", 12, 12, 1, 60, data::country1_params(), rng);
  const std::vector<double> series = city.traffic.space_average();
  double night = 0.0, day = 0.0;
  long nights = 0, days = 0;
  for (long t = 0; t < city.steps(); ++t) {
    const long hour = t % 24;
    if (hour >= 2 && hour < 6) {
      night += series[static_cast<std::size_t>(t)];
      ++nights;
    } else if (hour >= 11 && hour < 21) {
      day += series[static_cast<std::size_t>(t)];
      ++days;
    }
  }
  EXPECT_LT(night / static_cast<double>(nights), 0.8 * day / static_cast<double>(days));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProcessSweepTest, testing::Values(101ULL, 103ULL, 107ULL, 109ULL));

}  // namespace
}  // namespace spectra
