// The SpectraGAN core: config validation, component shapes, the
// differentiable IFFT bridge (value + gradient), masked spectrum targets,
// a short training run and whole-city generation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/config.h"
#include "core/discriminators.h"
#include "core/encoder.h"
#include "core/fourier_bridge.h"
#include "core/losses.h"
#include "core/spectrum_generator.h"
#include "core/time_generator.h"
#include "core/trainer.h"
#include "core/variants.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "dsp/fft.h"
#include "nn/init.h"
#include "obs/trace.h"
#include "reference/fourier_reference.h"
#include "train/checkpoint.h"
#include "util/binio.h"
#include "util/error.h"

namespace spectra::core {
namespace {

SpectraGanConfig tiny_config() {
  SpectraGanConfig config;
  config.train_steps = 24;
  config.spectrum_bins = 8;
  config.hidden_channels = 6;
  config.encoder_mid_channels = 8;
  config.spectrum_mid_channels = 8;
  config.lstm_hidden = 8;
  config.cond_dim = 8;
  config.disc_mlp_hidden = 8;
  config.noise_channels = 2;
  config.iterations = 4;
  config.batch = 2;
  return config;
}

TEST(ConfigTest, DefaultsValidate) {
  EXPECT_NO_THROW(default_config().validate());
  EXPECT_NO_THROW(tiny_config().validate());
}

TEST(ConfigTest, InvalidSettingsRejected) {
  SpectraGanConfig bad = tiny_config();
  bad.spectrum_bins = 1000;  // > T/2+1
  EXPECT_THROW(bad.validate(), spectra::Error);
  for (const long stride : {0L, -1L}) {  // R^t would never advance, or step backwards
    bad = tiny_config();
    bad.disc_time_stride = stride;
    EXPECT_THROW(bad.validate(), spectra::Error) << "disc_time_stride " << stride;
  }
  bad = tiny_config();
  bad.use_spectrum_generator = false;
  bad.use_time_generator = false;
  EXPECT_THROW(bad.validate(), spectra::Error);
  bad = tiny_config();
  bad.mask_quantile = 1.5f;
  EXPECT_THROW(bad.validate(), spectra::Error);
}

TEST(ConfigTest, FullBins) {
  SpectraGanConfig config;
  config.train_steps = 168;
  EXPECT_EQ(config.full_bins(), 85);
}

TEST(VariantTest, AllNamesResolve) {
  for (const char* name :
       {"SpectraGAN", "SpectraGAN-", "Spec-only", "Time-only", "Time-only+"}) {
    EXPECT_NO_THROW(variant_config(name).validate()) << name;
  }
  EXPECT_THROW(variant_config("nonsense"), spectra::Error);
}

TEST(VariantTest, SwitchesMatchPaperDefinitions) {
  EXPECT_FALSE(spec_only_config().use_time_generator);
  EXPECT_FALSE(time_only_config().use_spectrum_generator);
  EXPECT_TRUE(time_only_plus_config().extra_time_generator);
  const SpectraGanConfig minus = pixel_context_config();
  EXPECT_EQ(minus.patch.context_h, minus.patch.traffic_h);
}

TEST(EncoderTest, OutputAlignedWithTrafficPatch) {
  SpectraGanConfig config = tiny_config();
  Rng rng(1);
  ContextEncoder encoder(config, rng);
  nn::Var ctx = nn::Var::constant(nn::init::gaussian(
      {3, config.context_channels, config.patch.context_h, config.patch.context_w}, 1.0f, rng));
  nn::Var h = encoder.forward(ctx);
  EXPECT_EQ(h.value().dim(1), config.hidden_channels);
  EXPECT_EQ(h.value().dim(2), config.patch.traffic_h);
  EXPECT_EQ(h.value().dim(3), config.patch.traffic_w);
}

TEST(EncoderTest, PixelContextVariantGeometry) {
  SpectraGanConfig config = tiny_config();
  config.patch.context_h = config.patch.traffic_h;
  config.patch.context_w = config.patch.traffic_w;
  Rng rng(2);
  ContextEncoder encoder(config, rng);
  nn::Var ctx = nn::Var::constant(nn::init::gaussian(
      {2, config.context_channels, config.patch.context_h, config.patch.context_w}, 1.0f, rng));
  EXPECT_EQ(encoder.forward(ctx).value().dim(2), config.patch.traffic_h);
}

TEST(SpectrumGeneratorTest, OutputShape) {
  SpectraGanConfig config = tiny_config();
  Rng rng(3);
  SpectrumGenerator gen(config, rng);
  nn::Var h = nn::Var::constant(
      nn::init::gaussian({2, config.hidden_channels, 4, 4}, 1.0f, rng));
  nn::Var z = nn::Var::constant(nn::init::gaussian({2, config.noise_channels, 4, 4}, 1.0f, rng));
  nn::Var spec = gen.forward(h, z);
  EXPECT_EQ(spec.value().dim(1), 2 * config.spectrum_bins);
  EXPECT_EQ(spec.value().dim(2), 4);
}

TEST(TimeGeneratorTest, OutputShape) {
  SpectraGanConfig config = tiny_config();
  Rng rng(4);
  TimeGenerator gen(config, rng);
  nn::Var h = nn::Var::constant(nn::init::gaussian({2, config.hidden_channels, 4, 4}, 1.0f, rng));
  nn::Var z = nn::Var::constant(nn::init::gaussian({2, config.noise_channels, 4, 4}, 1.0f, rng));
  nn::Var out = gen.forward(h, z, 30);
  EXPECT_EQ(out.value().dim(0), 2);
  EXPECT_EQ(out.value().dim(1), 30);
  EXPECT_EQ(out.value().dim(2), 16);
}

TEST(DiscriminatorTest, LogitShapes) {
  SpectraGanConfig config = tiny_config();
  Rng rng(5);
  SpectrumDiscriminator ds(config, rng);
  TimeDiscriminator dt(config, rng);
  nn::Var h = nn::Var::constant(nn::init::gaussian({3, config.hidden_channels, 4, 4}, 1.0f, rng));
  nn::Var spec = nn::Var::constant(
      nn::init::gaussian({3, 2 * config.spectrum_bins, 16}, 1.0f, rng));
  nn::Var traffic = nn::Var::constant(nn::init::gaussian({3, config.train_steps, 16}, 1.0f, rng));
  EXPECT_EQ(ds.forward(spec, h).value().dim(0), 3);
  EXPECT_EQ(ds.forward(spec, h).value().dim(1), 1);
  EXPECT_EQ(dt.forward(traffic, h).value().dim(1), 1);
}

TEST(FourierBridgeTest, MatchesDspIrfft) {
  const long T = 24;
  const long f_gen = 6;
  Rng rng(6);
  nn::Tensor spec = nn::init::gaussian({1, 2 * f_gen, 2}, 1.0f, rng);
  nn::Var out = irfft_bridge(nn::Var::constant(spec), T, 1);
  ASSERT_EQ(out.value().dim(1), T);

  // Reference: unpack pixel 0's bins (model emits Y/T; restore Y) and run
  // the dsp irfft.
  std::vector<dsp::Complex> full(static_cast<std::size_t>(T / 2 + 1), dsp::Complex(0, 0));
  for (long i = 0; i < f_gen; ++i) {
    full[static_cast<std::size_t>(i)] =
        dsp::Complex(spec[(2 * i) * 2 + 0], spec[(2 * i + 1) * 2 + 0]) * static_cast<double>(T);
  }
  const std::vector<double> expected = dsp::irfft(full, T);
  for (long t = 0; t < T; ++t) {
    EXPECT_NEAR(out.value()[t * 2 + 0], expected[static_cast<std::size_t>(t)], 1e-5);
  }
}

TEST(FourierBridgeTest, ExpansionTilesPeriodicSignal) {
  const long T = 24;
  const long f_gen = 4;
  nn::Tensor spec({1, 2 * f_gen, 1});
  spec[2 * 1 * 1] = 12.0f;  // re of bin 1 -> one cosine cycle per window
  nn::Var base = irfft_bridge(nn::Var::constant(spec), T, 1);
  nn::Var expanded = irfft_bridge(nn::Var::constant(spec), T, 3);
  ASSERT_EQ(expanded.value().dim(1), 3 * T);
  for (long t = 0; t < 3 * T; ++t) {
    EXPECT_NEAR(expanded.value()[t], base.value()[t % T], 1e-5);
  }
}

TEST(FourierBridgeTest, GradientMatchesFiniteDifference) {
  const long T = 16;
  const long f_gen = 5;
  Rng rng(7);
  nn::Tensor spec = nn::init::gaussian({1, 2 * f_gen, 1}, 1.0f, rng);

  auto loss_value = [&](const nn::Tensor& s) {
    nn::Var out = irfft_bridge(nn::Var::constant(s), T, 1);
    // Weighted sum so gradient is nontrivial.
    float acc = 0.0f;
    for (long t = 0; t < T; ++t) acc += static_cast<float>(t + 1) * out.value()[t];
    return acc;
  };

  nn::Var leaf = nn::Var::leaf(spec);
  nn::Var out = irfft_bridge(leaf, T, 1);
  nn::Tensor weights({1, T, 1});
  for (long t = 0; t < T; ++t) weights[t] = static_cast<float>(t + 1);
  nn::Var loss = nn::sum(nn::mul(out, nn::Var::constant(weights)));
  loss.backward();

  const float eps = 1e-2f;
  for (long i = 0; i < spec.numel(); ++i) {
    nn::Tensor plus = spec, minus = spec;
    plus[i] += eps;
    minus[i] -= eps;
    const float numeric = (loss_value(plus) - loss_value(minus)) / (2.0f * eps);
    EXPECT_NEAR(leaf.grad()[i], numeric, 2e-2f * std::max(1.0f, std::fabs(numeric)))
        << "element " << i;
  }
}

TEST(FourierBridgeTest, DcAndNyquistImaginaryHaveZeroGradient) {
  const long T = 16;
  const long f_gen = T / 2 + 1;  // includes the Nyquist bin
  Rng rng(8);
  nn::Var leaf = nn::Var::leaf(nn::init::gaussian({1, 2 * f_gen, 1}, 1.0f, rng));
  nn::Var loss = nn::sum(irfft_bridge(leaf, T, 1));
  loss.backward();
  EXPECT_FLOAT_EQ(leaf.grad()[1], 0.0f);                    // im(DC)
  EXPECT_FLOAT_EQ(leaf.grad()[2 * (f_gen - 1) + 1], 0.0f);  // im(Nyquist)
}

TEST(LossesTest, BatchSpectrumMatchesRfft) {
  const long T = 24;
  nn::Tensor traffic({1, T, 1});
  Rng rng(9);
  std::vector<double> series(static_cast<std::size_t>(T));
  for (long t = 0; t < T; ++t) {
    series[static_cast<std::size_t>(t)] = rng.uniform(0, 1);
    traffic[t] = static_cast<float>(series[static_cast<std::size_t>(t)]);
  }
  const nn::Tensor spec = batch_spectrum(traffic, 5);
  const std::vector<dsp::Complex> expected = dsp::rfft(series);  // targets are Y/T
  for (long i = 0; i < 5; ++i) {
    EXPECT_NEAR(spec[2 * i], expected[static_cast<std::size_t>(i)].real() / T, 1e-5);
    EXPECT_NEAR(spec[2 * i + 1], expected[static_cast<std::size_t>(i)].imag() / T, 1e-5);
  }
}

TEST(LossesTest, MaskedTargetZeroesWeakBins) {
  const long T = 48;
  nn::Tensor traffic({1, T, 1});
  for (long t = 0; t < T; ++t) {
    traffic[t] = static_cast<float>(1.0 + std::cos(2.0 * M_PI * 2.0 * static_cast<double>(t) /
                                                   static_cast<double>(T)));
  }
  const long f_gen = 10;
  const nn::Tensor masked = masked_spectrum_target(traffic, f_gen, 0.75);
  // Only DC (bin 0) and bin 2 carry energy; everything else must be 0.
  for (long i = 0; i < f_gen; ++i) {
    const double mag = std::hypot(masked[2 * i], masked[2 * i + 1]);
    if (i == 0 || i == 2) {
      EXPECT_GT(mag, 0.4);  // DC carries the mean (1.0), bin 2 half the cosine
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-5);
    }
  }
}

// ---------------------------------------------------------------------------
// Bitwise contract: the batched bridge and spectrum targets (one lane call
// per batch row over its P pixels) equal the per-(b, p) loops on the
// scalar reference transforms bit for bit. P = 20 at T = 168 splits into
// a 16-lane and a 4-lane block.

std::uint32_t float_bits(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void expect_bitwise(const nn::Tensor& got, const nn::Tensor& want, const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (long i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(float_bits(got[i]), float_bits(want[i])) << what << " at " << i;
  }
}

// Batch row 0: Gaussian values with exact +0.0f and -0.0f planted at
// fixed strides. Every later row: signed zeros only, whose transforms are
// exact zeros, so sign-of-zero arithmetic shows up in the bits.
nn::Tensor signed_zero_tensor(nn::Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t = nn::init::gaussian(std::move(shape), 1.0f, rng);
  const long row = t.numel() / t.dim(0);
  for (long i = 0; i < t.numel(); ++i) {
    if (i >= row) {
      t[i] = t[i] < 0.0f ? -0.0f : 0.0f;
    } else if (i % 5 == 1) {
      t[i] = 0.0f;
    } else if (i % 7 == 2) {
      t[i] = -0.0f;
    }
  }
  return t;
}

std::string geometry(long T, long k, long P) {
  return "T=" + std::to_string(T) + " k=" + std::to_string(k) + " P=" + std::to_string(P);
}

TEST(FourierBridgeBitwiseTest, ForwardAndBackwardMatchPerSeriesReference) {
  const long B = 2;
  for (long T : {16L, 24L, 168L}) {
    for (long k : {1L, 3L}) {
      for (long P : {1L, 20L, 64L}) {
        const long f_gen = T / 2 + 1;  // every bin, Nyquist included
        const long t_out = k * T;
        const auto seed = static_cast<std::uint64_t>(T * 1000 + k * 100 + P);
        const nn::Tensor spec = signed_zero_tensor({B, 2 * f_gen, P}, seed);
        const nn::Tensor g = signed_zero_tensor({B, t_out, P}, seed + 1);

        nn::Var leaf = nn::Var::leaf(spec);
        nn::Var out = irfft_bridge(leaf, T, k);
        expect_bitwise(out.value(), reference::irfft_bridge_forward(spec, T, k),
                       "forward " + geometry(T, k, P));

        // d/d(out) of sum(out * g) is g exactly, so the leaf's gradient is
        // the bridge backward applied to g.
        nn::sum(nn::mul(out, nn::Var::constant(g))).backward();
        nn::Tensor want_grad({B, 2 * f_gen, P});
        reference::irfft_bridge_backward(g, T, k, want_grad);
        expect_bitwise(leaf.grad(), want_grad, "backward " + geometry(T, k, P));
      }
    }
  }
}

TEST(LossesBitwiseTest, SpectrumTargetsMatchPerSeriesReference) {
  const long B = 2;
  for (long T : {16L, 24L, 168L}) {
    for (long k : {1L, 3L}) {
      for (long P : {1L, 20L, 64L}) {
        const long steps = k * T;
        const long f_gen = std::min<long>(steps / 2 + 1, 20);
        const nn::Tensor traffic =
            signed_zero_tensor({B, steps, P}, static_cast<std::uint64_t>(steps * 100 + P));
        expect_bitwise(batch_spectrum(traffic, f_gen), reference::batch_spectrum(traffic, f_gen),
                       "batch_spectrum " + geometry(T, k, P));
        expect_bitwise(masked_spectrum_target(traffic, f_gen, 0.6),
                       reference::masked_spectrum_target(traffic, f_gen, 0.6),
                       "masked_spectrum_target " + geometry(T, k, P));
      }
    }
  }
}

TEST(SpectraGanTest, ParameterPartition) {
  SpectraGan model(tiny_config(), 11);
  EXPECT_GT(model.generator_parameters().size(), 0u);
  EXPECT_GT(model.discriminator_parameters().size(), 0u);
}

TEST(SpectraGanTest, ShortTrainingRunsAndGenerates) {
  data::DatasetConfig dc;
  dc.weeks = 1;
  data::CountryDataset dataset = data::make_country2(dc);

  SpectraGanConfig config = tiny_config();
  SpectraGan model(config, 12);
  data::PatchSampler sampler(dataset, {0, 1}, config.patch, 0, config.train_steps);
  Rng rng(13);
  const TrainStats stats = model.train(sampler, rng);
  EXPECT_EQ(stats.iterations, config.iterations);
  EXPECT_TRUE(std::isfinite(stats.final_l1_loss));

  const data::City& target = dataset.cities[2];
  const geo::CityTensor out = model.generate_city(target.context, 2 * config.train_steps, rng);
  EXPECT_EQ(out.steps(), 2 * config.train_steps);
  EXPECT_EQ(out.height(), target.height());
  for (double v : out.values()) EXPECT_GE(v, 0.0);
}

// FNV-1a 64 of a training run: the d, g_adv and L1 loss histories, then
// the bytes of every generator and discriminator parameter. Checkpoint
// options are explicit, so no SPECTRA_CKPT_* variable can resume a run.
std::uint64_t training_digest(const SpectraGanConfig& config, std::uint64_t seed) {
  data::DatasetConfig dc;
  dc.weeks = 1;
  const data::CountryDataset dataset = data::make_country2(dc);
  SpectraGan model(config, seed);
  const data::PatchSampler sampler(dataset, {0, 1}, config.patch, 0, config.train_steps);
  Rng rng(seed + 1);
  const TrainStats stats = model.train(sampler, rng, train::CheckpointOptions{});
  EXPECT_EQ(stats.iterations, config.iterations);
  binio::Writer bytes;
  for (const std::vector<double>* history :
       {&stats.d_loss_history, &stats.g_adv_loss_history, &stats.l1_loss_history}) {
    bytes.put_array(history->data(), history->size());
  }
  for (const std::vector<nn::Var>& params :
       {model.generator_parameters(), model.discriminator_parameters()}) {
    for (const nn::Var& p : params) {
      bytes.put_array(p.value().data(), static_cast<std::size_t>(p.value().numel()));
    }
  }
  return binio::fnv1a64(bytes.bytes());
}

// Golden training bits. The default recurrent shapes (T = 168, B = 6)
// make G^t's input-weight gradient a product over four GEMM k blocks;
// Time-only+ runs two G^t over one encoder output. Each digest was
// recorded from the per-step training graph, so any change to the
// recurrence's accumulation order shows here.
TEST(SpectraGanTest, DefaultShapeTrainingMatchesGoldenDigest) {
  SpectraGanConfig config = default_config();
  config.iterations = 3;
  EXPECT_EQ(training_digest(config, 31), 0x588a51be4795db94ULL);
}

TEST(SpectraGanTest, TimeOnlyPlusTrainingMatchesGoldenDigest) {
  SpectraGanConfig config = time_only_plus_config();
  config.train_steps = 24;
  config.spectrum_bins = 8;
  config.hidden_channels = 6;
  config.encoder_mid_channels = 8;
  config.spectrum_mid_channels = 8;
  config.lstm_hidden = 8;
  config.cond_dim = 8;
  config.disc_mlp_hidden = 8;
  config.iterations = 3;
  config.batch = 2;
  EXPECT_EQ(training_digest(config, 33), 0x9032a6e04b453c8bULL);
}

TEST(SpectraGanTest, GenerationRequiresMultipleOfTrainingWindow) {
  SpectraGanConfig config = tiny_config();
  SpectraGan model(config, 14);
  geo::ContextTensor context(config.context_channels, 12, 12);
  Rng rng(15);
  EXPECT_THROW(model.generate_city(context, config.train_steps + 1, rng), spectra::Error);
  EXPECT_THROW(model.generate_city(geo::ContextTensor(5, 12, 12), config.train_steps, rng),
               spectra::Error);
}

TEST(SpectraGanTest, SaveLoadReproducesGeneration) {
  SpectraGanConfig config = tiny_config();
  SpectraGan a(config, 16);
  SpectraGan b(config, 999);  // different init
  const std::string path = testing::TempDir() + "/sg_model.bin";
  a.save(path);
  b.load(path);

  geo::ContextTensor context(config.context_channels, 12, 12);
  Rng rng_fill(17);
  for (double& v : context.values()) v = rng_fill.uniform(0, 1);
  Rng rng_a(21), rng_b(21);
  const geo::CityTensor out_a = a.generate_city(context, config.train_steps, rng_a);
  const geo::CityTensor out_b = b.generate_city(context, config.train_steps, rng_b);
  for (long i = 0; i < out_a.size(); ++i) {
    EXPECT_NEAR(out_a[i], out_b[i], 1e-6);
  }
}

// Every profiled layer of a city generation reaches the trace: the one
// probe records a trace event wherever it times a profile node.
TEST(SpectraGanTest, TracedGenerationCarriesEveryLayer) {
  if (std::getenv("SPECTRA_TRACE") != nullptr) {
    GTEST_SKIP() << "global trace stream owned by SPECTRA_TRACE";
  }
  const SpectraGanConfig config = tiny_config();
  SpectraGan model(config, 18);
  geo::ContextTensor context(config.context_channels, 8, 8);
  Rng rng(19);
  obs::trace_reset();
  obs::trace_set_enabled(true);
  model.generate_city(context, config.train_steps, rng);
  obs::trace_set_enabled(false);
  const std::string events = obs::trace_json();
  obs::trace_reset();
  // Training and generation both time the recurrence as nn/lstm_forward;
  // the per-step nn/lstm_step node is retired.
  for (const char* name : {"nn/gemm", "nn/lstm_forward", "dsp/fft", "core/irfft_bridge",
                           "core/generate_city_streamed", "core/extract_patches", "core/sew"}) {
    EXPECT_NE(events.find("\"name\":\"" + std::string(name) + "\""), std::string::npos)
        << name;
  }
  EXPECT_EQ(events.find("\"name\":\"nn/lstm_step\""), std::string::npos);
}

class VariantTrainingTest : public testing::TestWithParam<const char*> {};

TEST_P(VariantTrainingTest, EachVariantTrainsAndGenerates) {
  data::DatasetConfig dc;
  dc.weeks = 1;
  data::CountryDataset dataset = data::make_country2(dc);

  SpectraGanConfig config = variant_config(GetParam());
  // Shrink to test scale.
  config.train_steps = 24;
  config.spectrum_bins = 8;
  config.hidden_channels = 6;
  config.encoder_mid_channels = 8;
  config.spectrum_mid_channels = 8;
  config.lstm_hidden = 8;
  config.cond_dim = 8;
  config.disc_mlp_hidden = 8;
  config.iterations = 3;
  config.batch = 2;

  SpectraGan model(config, 22);
  data::PatchSampler sampler(dataset, {0}, config.patch, 0, config.train_steps);
  Rng rng(23);
  EXPECT_NO_THROW(model.train(sampler, rng));
  const geo::CityTensor out =
      model.generate_city(dataset.cities[1].context, config.train_steps, rng);
  EXPECT_EQ(out.steps(), config.train_steps);
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantTrainingTest,
                         testing::Values("SpectraGAN", "SpectraGAN-", "Spec-only", "Time-only",
                                         "Time-only+"));

}  // namespace
}  // namespace spectra::core
