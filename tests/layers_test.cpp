#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

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

TEST(InitTest, HeNormalVariance) {
  Rng rng(2);
  Tensor t = init::he_normal({200, 50}, 200, rng);
  double sum_sq = 0.0;
  for (long i = 0; i < t.numel(); ++i) sum_sq += static_cast<double>(t[i]) * static_cast<double>(t[i]);
  EXPECT_NEAR(sum_sq / static_cast<double>(t.numel()), 2.0 / 200.0, 2e-3);
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

TEST(ConvStackTest, PreservesSpatialWithPadding) {
  Rng rng(6);
  ConvStack stack({3, 8, 2}, 3, Conv2dSpec{.stride = 1, .padding = 1}, Activation::kLeakyRelu,
                  Activation::kNone, rng);
  Var x = Var::constant(Tensor({2, 3, 5, 7}));
  Var y = stack.forward(x);
  EXPECT_EQ(y.value().dim(1), 2);
  EXPECT_EQ(y.value().dim(2), 5);
  EXPECT_EQ(y.value().dim(3), 7);
}

TEST(LstmCellTest, StepShapesAndStateEvolution) {
  Rng rng(7);
  LSTMCell cell(5, 8, rng);
  LstmState state = cell.initial_state(3);
  EXPECT_EQ(state.h.value().dim(1), 8);
  Var x = Var::constant(init::gaussian({3, 5}, 1.0f, rng));
  LstmState next = cell.step(x, state);
  EXPECT_EQ(next.h.value().dim(0), 3);
  // Cell output bounded by tanh.
  for (long i = 0; i < next.h.value().numel(); ++i) {
    EXPECT_LE(std::fabs(next.h.value()[i]), 1.0f);
  }
}

TEST(LstmCellTest, ForgetBiasInitializedToOne) {
  Rng rng(8);
  LSTMCell cell(2, 4, rng);
  const std::vector<Var> params = cell.parameters();
  const Tensor& bias = params[2].value();  // wx, wh, bias registration order
  ASSERT_EQ(bias.numel(), 16);
  for (long i = 4; i < 8; ++i) EXPECT_FLOAT_EQ(bias[i], 1.0f);
  EXPECT_FLOAT_EQ(bias[0], 0.0f);
}

TEST(ConvLstmTest, StepPreservesGeometry) {
  Rng rng(10);
  ConvLSTMCell cell(3, 5, 3, rng);
  LstmState state = cell.initial_state(2, 4, 6);
  Var x = Var::constant(init::gaussian({2, 3, 4, 6}, 1.0f, rng));
  LstmState next = cell.step(x, state);
  EXPECT_EQ(next.h.value().dim(1), 5);
  EXPECT_EQ(next.h.value().dim(2), 4);
  EXPECT_EQ(next.h.value().dim(3), 6);
}

TEST(ConvLstmTest, EvenKernelRejected) {
  Rng rng(11);
  EXPECT_THROW(ConvLSTMCell(3, 5, 4, rng), spectra::Error);
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  // Minimize (w - 3)^2.
  Var w = Var::leaf(Tensor::scalar(0.0f));
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    Var loss = mul(add_scalar(w, -3.0f), add_scalar(w, -3.0f));
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(w.value()[0], 3.0f, 1e-3);
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
  Sgd opt({w}, 1.0f);
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
  EXPECT_THROW(Sgd({Var::constant(Tensor::scalar(1.0f))}, 0.1f), spectra::Error);
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

// --- fused LSTM recurrence vs the unfused op composition ---
// The fused kernel (ops.h lstm_fused_step) claims bitwise-identical
// forward values AND gradients: same per-element expressions, same
// accumulation order as the add_rowvec/slice/sigmoid/tanh/mul chain.

// The reference step over the cell's own recurrent weight and bias.
LstmState unfused_step(const LSTMCell& cell, const Var& x_proj, const LstmState& state) {
  const std::vector<Var> params = cell.parameters();  // weight_x, weight_h, bias
  return reference::lstm_step_unfused(x_proj, state, params[1], params[2]);
}

// Equal bit patterns, so a zero of the wrong sign counts as a difference.
void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (long i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
        << what << " diverges at flat index " << i << ": " << a[i] << " vs " << b[i];
  }
}

TEST(LstmFusedTest, SingleStepMatchesUnfusedBitwise) {
  Rng rng(41);
  LSTMCell cell(7, 12, rng);
  const long batch = 5;
  const Tensor x_init = init::gaussian({batch, 7}, 1.0f, rng);
  const Tensor h_init = init::gaussian({batch, 12}, 0.5f, rng);
  const Tensor c_init = init::gaussian({batch, 12}, 0.5f, rng);

  struct StepRun {
    Tensor h, c, gx, gh0, gc0;
    std::vector<Tensor> param_grads;
  };
  auto run = [&](bool fused) {
    Var x = Var::leaf(x_init);
    Var h0 = Var::leaf(h_init);
    Var c0 = Var::leaf(c_init);
    for (Var p : cell.parameters()) p.zero_grad();
    LstmState state{h0, c0};
    Var x_proj = cell.project_input(x);
    LstmState next =
        fused ? cell.step_projected(x_proj, state) : unfused_step(cell, x_proj, state);
    // Loss touches both outputs so every gradient path (incl. the o-gate
    // dh side-channel and the direct dc path) is exercised.
    Var loss = add(sum(next.h), sum(next.c));
    loss.backward();
    StepRun r{next.h.value(), next.c.value(), x.grad(), h0.grad(), c0.grad(), {}};
    for (const Var& p : cell.parameters()) r.param_grads.push_back(p.grad());
    return r;
  };

  const StepRun unfused = run(false);
  const StepRun fused = run(true);
  expect_bitwise(unfused.h, fused.h, "h_next");
  expect_bitwise(unfused.c, fused.c, "c_next");
  expect_bitwise(unfused.gx, fused.gx, "grad x");
  expect_bitwise(unfused.gh0, fused.gh0, "grad h_prev");
  expect_bitwise(unfused.gc0, fused.gc0, "grad c_prev");
  ASSERT_EQ(unfused.param_grads.size(), fused.param_grads.size());
  for (std::size_t i = 0; i < unfused.param_grads.size(); ++i) {
    expect_bitwise(unfused.param_grads[i], fused.param_grads[i], "cell param grad");
  }
}

TEST(LstmFusedTest, TrainerShapeSequenceMatchesUnfusedBitwise) {
  // Trainer-scale shapes (the bench's lstm_train_gt geometry): T=168
  // steps, batch 6, 28 -> 24 hidden -> 16 out, full forward + backward.
  const long kSteps = 168, kBatch = 6, kIn = 28, kHidden = 24, kOut = 16;

  struct SeqRun {
    std::vector<Tensor> outputs;
    std::vector<Tensor> param_grads;
  };
  auto run = [&](bool fused) {
    Rng model_rng(91);
    Lstm lstm(kIn, kHidden, kOut, model_rng, Activation::kTanh);
    Rng data_rng(92);
    std::vector<Var> inputs;
    for (long t = 0; t < kSteps; ++t) {
      inputs.push_back(Var::leaf(init::gaussian({kBatch, kIn}, 1.0f, data_rng)));
    }
    std::vector<Var> outs;
    if (fused) {
      outs = lstm.forward(inputs);
    } else {
      // Replicate Lstm::forward exactly — batched projection, per-step
      // slices — but drive the unfused step.
      Var all_steps = concat_axis(inputs, 0);
      Var all_proj = lstm.cell().project_input(all_steps);
      LstmState state = lstm.cell().initial_state(kBatch);
      for (long t = 0; t < kSteps; ++t) {
        Var x_proj = slice_axis(all_proj, 0, t * kBatch, kBatch);
        state = unfused_step(lstm.cell(), x_proj, state);
        outs.push_back(apply_activation(lstm.head().forward(state.h), Activation::kTanh));
      }
    }
    Var total = sum(outs[0]);
    for (std::size_t t = 1; t < outs.size(); ++t) total = add(total, sum(outs[t]));
    total.backward();
    SeqRun r;
    for (const Var& o : outs) r.outputs.push_back(o.value());
    for (const Var& p : lstm.parameters()) r.param_grads.push_back(p.grad());
    return r;
  };

  const SeqRun unfused = run(false);
  const SeqRun fused = run(true);
  ASSERT_EQ(unfused.outputs.size(), fused.outputs.size());
  for (std::size_t t = 0; t < unfused.outputs.size(); ++t) {
    expect_bitwise(unfused.outputs[t], fused.outputs[t], "sequence output");
  }
  ASSERT_EQ(unfused.param_grads.size(), fused.param_grads.size());
  for (std::size_t i = 0; i < unfused.param_grads.size(); ++i) {
    expect_bitwise(unfused.param_grads[i], fused.param_grads[i], "lstm param grad");
  }
}

TEST(LstmFusedTest, UnusedFinalStateHMatchesUnfused) {
  // Loss through c only: h never receives gradient, so the fused o-gate
  // path must contribute exactly zero — matching the unfused graph where
  // the o-sigmoid node is unreachable from the loss.
  Rng rng(43);
  LSTMCell cell(4, 6, rng);
  const Tensor x_init = init::gaussian({3, 4}, 1.0f, rng);
  auto run = [&](bool fused) {
    Var x = Var::leaf(x_init);
    for (Var p : cell.parameters()) p.zero_grad();
    LstmState state = cell.initial_state(3);
    Var x_proj = cell.project_input(x);
    LstmState next =
        fused ? cell.step_projected(x_proj, state) : unfused_step(cell, x_proj, state);
    Var loss = sum(next.c);
    loss.backward();
    std::vector<Tensor> grads{x.grad()};
    for (const Var& p : cell.parameters()) grads.push_back(p.grad());
    return grads;
  };
  const std::vector<Tensor> unfused = run(false);
  const std::vector<Tensor> fused = run(true);
  ASSERT_EQ(unfused.size(), fused.size());
  for (std::size_t i = 0; i < unfused.size(); ++i) {
    expect_bitwise(unfused[i], fused[i], "c-only-loss grad");
  }
}

// --- inference recurrence vs the training graph ---
// Lstm::infer reorders independent work only (split input projection,
// gate-major state, one head GEMM), so every output bit must equal
// forward() over the concatenated [cond, clock] inputs followed by
// stack0/transpose01, the graph path training runs.

Tensor graph_sequence(const Lstm& lstm, const Tensor& cond, long steps, bool week) {
  const std::vector<Var> outputs = lstm.forward(
      core::time_encoded_inputs(Var::constant(cond), steps, /*steps_per_day=*/24, week));
  return transpose01(stack0(outputs)).value();
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
        const Tensor got = lstm.infer(cond, core::clock_table(steps, 24, week));
        expect_bitwise(graph_sequence(lstm, cond, steps, week), got, "infer");
      }
    }
  }
}

TEST(LstmInferTest, WidestConditioningStillMatches) {
  // cond_dim = kKC - kTimeFeatures: the projection still fits one GEMM
  // k block, the largest input SpectraGanConfig::validate accepts.
  const long cond_dim = gemm::kKC - core::kTimeFeatures;
  Rng model_rng(71);
  const Lstm lstm(cond_dim + core::kTimeFeatures, 5, 4, model_rng, Activation::kNone);
  Rng data_rng(72);
  const Tensor cond = init::gaussian({5, cond_dim}, 1.0f, data_rng);
  expect_bitwise(graph_sequence(lstm, cond, 24, true),
                 lstm.infer(cond, core::clock_table(24, 24, true)), "infer");
}

TEST(LstmInferTest, RejectsInputsBeyondOneKBlockAndBadWidths) {
  Rng model_rng(73);
  const long cond_dim = gemm::kKC - core::kTimeFeatures + 1;
  const Lstm wide(cond_dim + core::kTimeFeatures, 5, 4, model_rng, Activation::kNone);
  EXPECT_THROW(wide.infer(Tensor({2, cond_dim}), core::clock_table(4, 24)), spectra::Error);
  const Lstm narrow(7 + core::kTimeFeatures, 5, 4, model_rng, Activation::kNone);
  EXPECT_THROW(narrow.infer(Tensor({2, 6}), core::clock_table(4, 24)), spectra::Error);
  EXPECT_NO_THROW(narrow.infer(Tensor({2, 7}), core::clock_table(4, 24)));
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
