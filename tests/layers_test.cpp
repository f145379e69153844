#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/config.h"
#include "core/time_generator.h"
#include "nn/gemm.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "reference/lstm_reference.h"
#include "util/error.h"

namespace spectra::nn {
namespace {

TEST(InitTest, XavierBounds) {
  Rng rng(1);
  Tensor t = init::xavier_uniform({10, 20}, 10, 20, rng);
  const double bound = std::sqrt(6.0 / 30.0);
  for (long i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(t[i]), bound + 1e-6);
  }
}

TEST(InitTest, Zeros) {
  Tensor t = init::zeros({4, 4});
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
}

TEST(LinearTest, ForwardShapeAndValue) {
  Rng rng(3);
  Linear layer(4, 3, rng);
  Var x = Var::constant(Tensor({2, 4}, {1, 0, 0, 0, 0, 1, 0, 0}));
  Var y = layer.forward(x);
  EXPECT_EQ(y.value().dim(0), 2);
  EXPECT_EQ(y.value().dim(1), 3);
  EXPECT_THROW(layer.forward(Var::constant(Tensor({2, 5}))), spectra::Error);
}

TEST(LinearTest, ParameterCount) {
  Rng rng(4);
  Linear layer(10, 7, rng);
  EXPECT_EQ(layer.parameter_count(), 10 * 7 + 7);
  EXPECT_EQ(layer.parameters().size(), 2u);
}

TEST(MlpTest, HiddenAndOutputActivations) {
  Rng rng(5);
  Mlp mlp({3, 8, 1}, Activation::kRelu, Activation::kSigmoid, rng);
  Var x = Var::constant(Tensor({4, 3}));
  Var y = mlp.forward(x);
  EXPECT_EQ(y.value().dim(1), 1);
  for (long i = 0; i < y.value().numel(); ++i) {
    EXPECT_GE(y.value()[i], 0.0f);
    EXPECT_LE(y.value()[i], 1.0f);
  }
}

TEST(LstmTest, FormsShapesAndBoundedOutputs) {
  Rng rng(7);
  const Lstm lstm(5 + 4, 8, 3, rng, Activation::kSigmoid);
  const Var cond = Var::constant(init::gaussian({2, 5}, 1.0f, rng));
  const Var y = lstm.generate(cond, Tensor::full({7, 4}, 0.5f));
  EXPECT_EQ(y.value().shape(), (Shape{2, 7, 3}));
  for (long i = 0; i < y.value().numel(); ++i) {
    EXPECT_GT(y.value()[i], 0.0f);
    EXPECT_LT(y.value()[i], 1.0f);
  }
  const Lstm critic(4 + 5, 8, 1, rng);
  const Var series = Var::constant(init::gaussian({2, 7, 4}, 1.0f, rng));
  EXPECT_EQ(critic.critique(series, cond, 2).value().shape(), (Shape{2, 1}));
  EXPECT_THROW(critic.critique(series, cond, 0), spectra::Error);
  EXPECT_THROW(critic.critique(series, cond, -1), spectra::Error);
  EXPECT_THROW(Lstm(9, 8, 1, rng, Activation::kTanh), spectra::Error);
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  Rng rng(8);
  const Lstm lstm(2, 4, 1, rng);
  const std::vector<Var> params = lstm.parameters();
  ASSERT_EQ(params.size(), 5u);  // W_x, W_h, b, W_out, b_out
  const Tensor& bias = params[2].value();
  ASSERT_EQ(bias.numel(), 16);
  for (long i = 4; i < 8; ++i) EXPECT_FLOAT_EQ(bias[i], 1.0f);
  EXPECT_FLOAT_EQ(bias[0], 0.0f);
}

TEST(ConvLstmTest, StepPreservesGeometry) {
  Rng rng(10);
  ConvLstmCell cell(3, 5, 3, rng);
  LstmState state = cell.initial_state(2, 4, 6);
  Var x = Var::constant(init::gaussian({2, 3, 4, 6}, 1.0f, rng));
  LstmState next = cell.step(x, state);
  EXPECT_EQ(next.h.value().dim(1), 5);
  EXPECT_EQ(next.h.value().dim(2), 4);
  EXPECT_EQ(next.h.value().dim(3), 6);
}

TEST(ConvLstmTest, EvenKernelRejected) {
  Rng rng(11);
  EXPECT_THROW(ConvLstmCell(3, 5, 4, rng), spectra::Error);
}

TEST(OptimizerTest, AdamFitsLinearRegression) {
  Rng rng(12);
  // y = x * W* with W* = [[2], [-1]].
  Tensor x_data = init::gaussian({64, 2}, 1.0f, rng);
  Tensor y_data({64, 1});
  for (long i = 0; i < 64; ++i) {
    y_data[i] = 2.0f * x_data[i * 2] - 1.0f * x_data[i * 2 + 1];
  }
  Linear model(2, 1, rng);
  Adam opt(model.parameters(), 0.05f);
  Var x = Var::constant(x_data);
  Var y = Var::constant(y_data);
  float final_loss = 1e9f;
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    Var loss = mse_loss(model.forward(x), y);
    loss.backward();
    opt.step();
    final_loss = loss.value()[0];
  }
  EXPECT_LT(final_loss, 1e-3f);
}

TEST(OptimizerTest, GradClipScalesLargeGradients) {
  Var w = Var::leaf(Tensor({2}, {1.0f, 1.0f}));
  Adam opt({w}, 1.0f);
  opt.zero_grad();
  Var loss = sum(mul_scalar(w, 100.0f));
  loss.backward();
  opt.clip_grad_norm(1.0f);
  double norm_sq = 0.0;
  for (long i = 0; i < 2; ++i)
    norm_sq += static_cast<double>(w.grad()[i]) * static_cast<double>(w.grad()[i]);
  EXPECT_NEAR(std::sqrt(norm_sq), 1.0, 1e-4);
}

TEST(OptimizerTest, RejectsConstants) {
  EXPECT_THROW(Adam({Var::constant(Tensor::scalar(1.0f))}, 0.1f), spectra::Error);
}

TEST(SerializeTest, RoundTripPreservesParameters) {
  Rng rng(13);
  Linear a(4, 3, rng);
  Linear b(4, 3, rng);  // different init
  const std::string path = testing::TempDir() + "/sg_params_test.bin";
  std::vector<Var> pa = a.parameters();
  save_parameters(path, pa);
  std::vector<Var> pb = b.parameters();
  load_parameters(path, pb);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (long j = 0; j < pa[i].value().numel(); ++j) {
      EXPECT_FLOAT_EQ(pa[i].value()[j], pb[i].value()[j]);
    }
  }
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(14);
  Linear a(4, 3, rng);
  Linear wrong(5, 3, rng);
  const std::string path = testing::TempDir() + "/sg_params_mismatch.bin";
  std::vector<Var> pa = a.parameters();
  save_parameters(path, pa);
  std::vector<Var> pw = wrong.parameters();
  EXPECT_THROW(load_parameters(path, pw), spectra::Error);
}

TEST(SerializeTest, MissingFileRejected) {
  Rng rng(15);
  Linear a(2, 2, rng);
  std::vector<Var> pa = a.parameters();
  EXPECT_THROW(load_parameters("/nonexistent/sg.bin", pa), spectra::Error);
}

// Parameterized sweep: MLP trained on a separable toy task converges for
// a range of widths.
class MlpWidthTest : public testing::TestWithParam<long> {};

TEST_P(MlpWidthTest, FitsXorLikeTask) {
  const long width = GetParam();
  Rng rng(16);
  Mlp mlp({2, width, 1}, Activation::kTanh, Activation::kNone, rng);
  // XOR corners.
  Tensor x({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor y({4, 1}, {0, 1, 1, 0});
  Adam opt(mlp.parameters(), 0.05f);
  float loss_v = 1e9f;
  for (int i = 0; i < 600; ++i) {
    opt.zero_grad();
    Var loss = mse_loss(mlp.forward(Var::constant(x)), Var::constant(y));
    loss.backward();
    opt.step();
    loss_v = loss.value()[0];
  }
  EXPECT_LT(loss_v, 0.05f) << "width " << width;
}

INSTANTIATE_TEST_SUITE_P(Widths, MlpWidthTest, testing::Values(4L, 8L, 16L));

// --- the LSTM sequence op vs the per-step reference graph ---
// Lstm::generate and Lstm::critique replay the per-step graph's
// accumulation order (tests/reference/lstm_reference), so the forward
// and every gradient must match it bit for bit.

// Equal bit patterns, so a zero of the wrong sign counts as a difference.
void expect_bitwise(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (long i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
        << what << " diverges at flat index " << i << ": " << a[i] << " vs " << b[i];
  }
}

// Random loss weights with an exact zero every third element, so some
// gradients start from +0.
Tensor loss_weights(const Shape& shape, Rng& rng) {
  Tensor w = init::gaussian(shape, 1.0f, rng);
  for (long i = 0; i < w.numel(); i += 3) w[i] = 0.0f;
  return w;
}

// Forward value, input gradients and parameter gradients of one run.
struct SequenceRun {
  Tensor out;
  std::vector<Tensor> grads;
};

// Runs `build` over fresh leaves of `inputs`, backpropagates the weighted
// sum of its output and collects the leaves' gradients, then the
// module's.
template <class Build>
SequenceRun run_sequence(const Lstm& lstm, const std::vector<Tensor>& inputs, const Tensor& weights,
                         Build&& build) {
  for (Var p : lstm.parameters()) p.zero_grad();
  std::vector<Var> leaves;
  for (const Tensor& t : inputs) leaves.push_back(Var::leaf(t));
  const Var out = build(leaves);
  sum(mul(out, Var::constant(weights))).backward();
  SequenceRun run{out.value(), {}};
  for (const Var& v : leaves) run.grads.push_back(v.grad());
  for (const Var& p : lstm.parameters()) run.grads.push_back(p.grad());
  return run;
}

void expect_runs_bitwise(const SequenceRun& got, const SequenceRun& want, const std::string& tag) {
  expect_bitwise(got.out, want.out, "forward " + tag);
  ASSERT_EQ(got.grads.size(), want.grads.size());
  for (std::size_t i = 0; i < got.grads.size(); ++i) {
    expect_bitwise(got.grads[i], want.grads[i], "gradient " + std::to_string(i) + " " + tag);
  }
}

void check_generate(long hidden, long batch, long steps, long out, Activation head, bool week,
                    std::uint64_t seed) {
  const long kCond = 7;
  const std::string tag = "H " + std::to_string(hidden) + " B " + std::to_string(batch) + " T " +
                          std::to_string(steps) + " out " + std::to_string(out) +
                          (head == Activation::kSigmoid ? " sigmoid" : " none") +
                          (week ? " week" : "");
  Rng model_rng(seed);
  const Lstm lstm(kCond + core::kTimeFeatures, hidden, out, model_rng, head);
  Rng data_rng(seed + 1);
  const Tensor cond = init::gaussian({batch, kCond}, 1.0f, data_rng);
  const Tensor weights = loss_weights({batch, steps, out}, data_rng);
  const Tensor clock = core::clock_table(steps, 24, week);
  const SequenceRun op = run_sequence(lstm, {cond}, weights, [&](const std::vector<Var>& in) {
    return lstm.generate(in[0], clock);
  });
  const SequenceRun graph = run_sequence(lstm, {cond}, weights, [&](const std::vector<Var>& in) {
    return reference::lstm_generate_graph(lstm.parameters(), head, in[0], clock);
  });
  expect_runs_bitwise(op, graph, tag);
}

TEST(LstmSequenceTest, GenerateMatchesReferenceGraphBitwise) {
  // The (weekly clock, head) pairs take turns so each meets every shape.
  int shape = 0;
  for (const long hidden : {5L, 24L}) {
    for (const long batch : {1L, 5L, 6L, 17L}) {
      for (const long steps : {1L, 24L, 168L}) {
        const int pair = (shape + shape / 3) % 4;
        ++shape;
        check_generate(hidden, batch, steps, 3,
                       pair / 2 == 0 ? Activation::kNone : Activation::kSigmoid, pair % 2 == 0,
                       static_cast<std::uint64_t>(100 + shape));
      }
    }
  }
}

TEST(LstmSequenceTest, GenerateWithHeadWiderThanOneKBlockMatches) {
  // out > kKC: the head's dh term accumulates per step instead of as one
  // precomputed product.
  check_generate(5, 3, 6, gemm::kKC + 9, Activation::kNone, true, 150);
  check_generate(5, 3, 6, gemm::kKC + 9, Activation::kSigmoid, false, 151);
}

void check_critique(long hidden, long batch, long steps, long stride, long width,
                    std::uint64_t seed) {
  const long kCond = 8;
  const std::string tag = "H " + std::to_string(hidden) + " B " + std::to_string(batch) + " T " +
                          std::to_string(steps) + " stride " + std::to_string(stride) + " S " +
                          std::to_string(width);
  Rng model_rng(seed);
  const Lstm lstm(width + kCond, hidden, 1, model_rng);
  Rng data_rng(seed + 1);
  const Tensor series = init::gaussian({batch, steps, width}, 1.0f, data_rng);
  const Tensor cond = init::gaussian({batch, kCond}, 1.0f, data_rng);
  const Tensor weights = loss_weights({batch, 1}, data_rng);
  const SequenceRun op =
      run_sequence(lstm, {series, cond}, weights, [&](const std::vector<Var>& in) {
        return lstm.critique(in[0], in[1], stride);
      });
  const SequenceRun graph =
      run_sequence(lstm, {series, cond}, weights, [&](const std::vector<Var>& in) {
        return reference::lstm_critique_graph(lstm.parameters(), in[0], in[1], stride);
      });
  expect_runs_bitwise(op, graph, tag);
}

TEST(LstmSequenceTest, CritiqueMatchesReferenceGraphBitwise) {
  // T = 25 is divided by no stride above 1; R^t's 16 pixels alternate
  // with DoppelGANger's single series value.
  int shape = 0;
  for (const long hidden : {5L, 24L}) {
    for (const long batch : {1L, 5L, 6L, 17L}) {
      for (const long steps : {1L, 24L, 25L, 168L}) {
        for (const long stride : {1L, 2L, 3L}) {
          ++shape;
          check_critique(hidden, batch, steps, stride, shape % 2 == 0 ? 16 : 1,
                         static_cast<std::uint64_t>(200 + shape));
        }
      }
    }
  }
}

TEST(LstmSequenceTest, CritiqueWithConstantSeriesMatches) {
  // The discriminator step feeds detached fakes: only cond and the
  // parameters take gradients.
  Rng model_rng(301);
  const Lstm lstm(16 + 8, 24, 1, model_rng);
  Rng data_rng(302);
  const Var series = Var::constant(init::gaussian({6, 168, 16}, 1.0f, data_rng));
  const Tensor cond = init::gaussian({6, 8}, 1.0f, data_rng);
  const Tensor weights = loss_weights({6, 1}, data_rng);
  const SequenceRun op = run_sequence(lstm, {cond}, weights, [&](const std::vector<Var>& in) {
    return lstm.critique(series, in[0], 2);
  });
  const SequenceRun graph = run_sequence(lstm, {cond}, weights, [&](const std::vector<Var>& in) {
    return reference::lstm_critique_graph(lstm.parameters(), series, in[0], 2);
  });
  expect_runs_bitwise(op, graph, "constant series");
}

// --- the op under InferenceGuard ---
// Generation runs the op with saving off (split projection, gate-major
// state, one head GEMM, no allocation per step); every output bit must
// equal the per-step graph's forward.

Tensor graph_sequence(const Lstm& lstm, Activation head, const Tensor& cond, const Tensor& clock) {
  return reference::lstm_generate_graph(lstm.parameters(), head, Var::constant(cond), clock)
      .value();
}

Tensor inferred_sequence(const Lstm& lstm, const Tensor& cond, const Tensor& clock) {
  const InferenceGuard no_grad;
  const Var y = lstm.generate(Var::constant(cond), clock);
  EXPECT_FALSE(y.requires_grad());
  return y.value();
}

TEST(LstmInferTest, MatchesGraphSequenceBitwise) {
  // Every hidden x batch x steps shape. The four (weekly clock, head)
  // pairs take turns, shifted by one per (hidden, batch) row, so every
  // pair meets every step count and every batch size.
  const long kCond = 7;
  int shape = 0;
  for (const long hidden : {5L, 24L}) {
    for (const long batch : {1L, 5L, 16L, 17L}) {
      for (const long steps : {1L, 24L, 168L, 504L}) {
        const int pair = (shape + shape / 4) % 4;
        const bool week = pair % 2 == 0;
        const Activation head = pair / 2 == 0 ? Activation::kNone : Activation::kSigmoid;
        ++shape;
        SCOPED_TRACE(testing::Message() << "H " << hidden << " B " << batch << " T " << steps
                                        << " week " << week << " sigmoid head "
                                        << (head == Activation::kSigmoid));
        Rng model_rng(static_cast<std::uint64_t>(60 + shape));
        const Lstm lstm(kCond + core::kTimeFeatures, hidden, 3, model_rng, head);
        Rng data_rng(static_cast<std::uint64_t>(batch * 1000 + steps));
        const Tensor cond = init::gaussian({batch, kCond}, 1.0f, data_rng);
        const Tensor clock = core::clock_table(steps, 24, week);
        expect_bitwise(graph_sequence(lstm, head, cond, clock),
                       inferred_sequence(lstm, cond, clock), "infer");
      }
    }
  }
}

TEST(LstmInferTest, CritiqueMatchesGraph) {
  Rng model_rng(74);
  const Lstm lstm(16 + 8, 24, 1, model_rng);
  Rng data_rng(75);
  const Var series = Var::constant(init::gaussian({5, 25, 16}, 1.0f, data_rng));
  const Var cond = Var::constant(init::gaussian({5, 8}, 1.0f, data_rng));
  const Tensor graph =
      reference::lstm_critique_graph(lstm.parameters(), series, cond, 3).value();
  const InferenceGuard no_grad;
  expect_bitwise(graph, lstm.critique(series, cond, 3).value(), "critique");
}

TEST(LstmInferTest, WidestConditioningStillMatches) {
  // cond_dim = kKC - kTimeFeatures: the projection still fits one GEMM
  // k block, the largest input SpectraGanConfig::validate accepts.
  const long cond_dim = gemm::kKC - core::kTimeFeatures;
  Rng model_rng(71);
  const Lstm lstm(cond_dim + core::kTimeFeatures, 5, 4, model_rng, Activation::kNone);
  Rng data_rng(72);
  const Tensor cond = init::gaussian({5, cond_dim}, 1.0f, data_rng);
  const Tensor clock = core::clock_table(24, 24, true);
  expect_bitwise(graph_sequence(lstm, Activation::kNone, cond, clock),
                 inferred_sequence(lstm, cond, clock), "infer");
}

TEST(LstmInferTest, RejectsInputsBeyondOneKBlockAndBadWidths) {
  Rng model_rng(73);
  const long cond_dim = gemm::kKC - core::kTimeFeatures + 1;
  const Lstm wide(cond_dim + core::kTimeFeatures, 5, 4, model_rng, Activation::kNone);
  const InferenceGuard no_grad;
  EXPECT_THROW(wide.generate(Var::constant(Tensor({2, cond_dim})), core::clock_table(4, 24)),
               spectra::Error);
  const Lstm narrow(7 + core::kTimeFeatures, 5, 4, model_rng, Activation::kNone);
  EXPECT_THROW(narrow.generate(Var::constant(Tensor({2, 6})), core::clock_table(4, 24)),
               spectra::Error);
  EXPECT_NO_THROW(narrow.generate(Var::constant(Tensor({2, 7})), core::clock_table(4, 24)));
}

TEST(LstmInferTest, ConfigRejectsConditioningBeyondOneKBlock) {
  core::SpectraGanConfig config;
  config.cond_dim = gemm::kKC - core::kTimeFeatures;
  EXPECT_NO_THROW(config.validate());
  config.cond_dim = gemm::kKC - core::kTimeFeatures + 1;
  EXPECT_THROW(config.validate(), spectra::Error);
}

}  // namespace
}  // namespace spectra::nn
