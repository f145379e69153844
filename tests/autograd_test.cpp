// Gradient correctness for the autograd engine and every operator:
// analytic gradients from backward() are compared against central finite
// differences on small random inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "nn/autograd.h"
#include "nn/conv.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "util/error.h"
#include "util/rng.h"

namespace spectra::nn {
namespace {

using Builder = std::function<Var(const std::vector<Var>&)>;

Tensor random_tensor(Shape shape, Rng& rng, float scale = 1.0f) {
  Tensor t(std::move(shape));
  for (long i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
  return t;
}

// Verify d(out)/d(inputs) against central differences for every element.
void check_gradients(const Builder& build, std::vector<Tensor> initial, float eps = 1e-2f,
                     float tol = 2e-2f) {
  // Analytic pass.
  std::vector<Var> leaves;
  leaves.reserve(initial.size());
  for (const Tensor& t : initial) leaves.push_back(Var::leaf(t));
  Var out = build(leaves);
  ASSERT_EQ(out.value().numel(), 1) << "gradient check requires scalar output";
  out.backward();

  for (std::size_t k = 0; k < initial.size(); ++k) {
    for (long i = 0; i < initial[k].numel(); ++i) {
      auto eval = [&](float delta) {
        std::vector<Var> probe;
        for (std::size_t j = 0; j < initial.size(); ++j) {
          Tensor t = initial[j];
          if (j == k) t[i] += delta;
          probe.push_back(Var::constant(std::move(t)));
        }
        // Constants produce no graph; re-wrap the probed input as leaf so
        // the op tree is still constructible.
        probe[k] = Var::leaf(probe[k].value());
        return build(probe).value()[0];
      };
      const float numeric = (eval(eps) - eval(-eps)) / (2.0f * eps);
      const float analytic = leaves[k].grad()[i];
      const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(analytic)});
      EXPECT_NEAR(analytic, numeric, tol * scale)
          << "input " << k << " element " << i;
    }
  }
}

TEST(AutogradTest, LeafAndConstantFlags) {
  Var leaf = Var::leaf(Tensor::scalar(1.0f));
  Var constant = Var::constant(Tensor::scalar(1.0f));
  EXPECT_TRUE(leaf.requires_grad());
  EXPECT_FALSE(constant.requires_grad());
  EXPECT_FALSE(Var().defined());
}

TEST(AutogradTest, BackwardRequiresScalar) {
  Var v = Var::leaf(Tensor({2}, {1, 2}));
  EXPECT_THROW(v.backward(), spectra::Error);
}

TEST(AutogradTest, SimpleChainRule) {
  // f(x) = sum(3 * x) => df/dx = 3.
  Var x = Var::leaf(Tensor({4}, {1, 2, 3, 4}));
  Var y = sum(mul_scalar(x, 3.0f));
  y.backward();
  for (long i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 3.0f);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // f(x) = sum(x*x + x) through two paths sharing x.
  Var x = Var::leaf(Tensor({3}, {1, 2, 3}));
  Var y = sum(add(mul(x, x), x));
  y.backward();
  for (long i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(x.grad()[i], 2.0f * x.value()[i] + 1.0f);
  }
}

TEST(AutogradTest, ZeroGradClears) {
  Var x = Var::leaf(Tensor::scalar(2.0f));
  Var y = mul(x, x);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(AutogradTest, InferenceGuardDropsGraph) {
  Var x = Var::leaf(Tensor::scalar(3.0f));
  {
    InferenceGuard guard;
    EXPECT_TRUE(InferenceGuard::active());
    Var y = mul(x, x);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_FLOAT_EQ(y.value()[0], 9.0f);
  }
  EXPECT_FALSE(InferenceGuard::active());
}

TEST(AutogradTest, DeepChainDoesNotOverflow) {
  // 5000 chained ops exercise the iterative topological sort.
  Var x = Var::leaf(Tensor::scalar(1.0f));
  Var y = x;
  for (int i = 0; i < 5000; ++i) y = add_scalar(y, 0.001f);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
  EXPECT_NEAR(y.value()[0], 6.0f, 1e-2);
}

// ---- finite-difference checks per operator ----

TEST(GradCheck, AddSubMulDiv) {
  Rng rng(1);
  Tensor a = random_tensor({2, 3}, rng);
  Tensor b = random_tensor({2, 3}, rng);
  for (long i = 0; i < b.numel(); ++i) b[i] += (b[i] >= 0 ? 2.0f : -2.0f);  // keep away from 0
  check_gradients([](const std::vector<Var>& in) { return sum(add(in[0], in[1])); }, {a, b});
  check_gradients([](const std::vector<Var>& in) { return sum(sub(in[0], in[1])); }, {a, b});
  check_gradients([](const std::vector<Var>& in) { return sum(mul(in[0], in[1])); }, {a, b});
  check_gradients([](const std::vector<Var>& in) { return sum(divide(in[0], in[1])); }, {a, b});
}

TEST(GradCheck, ScalarOps) {
  Rng rng(2);
  Tensor a = random_tensor({5}, rng);
  check_gradients([](const std::vector<Var>& in) { return sum(add_scalar(in[0], 1.5f)); }, {a});
  check_gradients([](const std::vector<Var>& in) { return sum(mul_scalar(in[0], -2.5f)); }, {a});
  check_gradients([](const std::vector<Var>& in) { return sum(neg(in[0])); }, {a});
}

TEST(GradCheck, SmoothUnaries) {
  Rng rng(3);
  Tensor a = random_tensor({6}, rng);
  check_gradients([](const std::vector<Var>& in) { return sum(vtanh(in[0])); }, {a});
  check_gradients([](const std::vector<Var>& in) { return sum(sigmoid(in[0])); }, {a});
  check_gradients([](const std::vector<Var>& in) { return sum(vexp(in[0])); }, {a});
  check_gradients([](const std::vector<Var>& in) { return sum(softplus(in[0])); }, {a});
}

TEST(GradCheck, LogPositiveInputs) {
  Tensor a({4}, {0.5f, 1.0f, 2.0f, 3.0f});
  check_gradients([](const std::vector<Var>& in) { return sum(vlog(in[0])); }, {a});
}

TEST(GradCheck, PiecewiseUnariesAwayFromKink) {
  // relu/leaky/abs gradients checked at points far from the kink.
  Tensor a({4}, {-2.0f, -0.7f, 0.8f, 1.5f});
  check_gradients([](const std::vector<Var>& in) { return sum(relu(in[0])); }, {a}, 1e-2f);
  check_gradients([](const std::vector<Var>& in) { return sum(leaky_relu(in[0])); }, {a}, 1e-2f);
  check_gradients([](const std::vector<Var>& in) { return sum(vabs(in[0])); }, {a}, 1e-2f);
}

TEST(GradCheck, Reductions) {
  Rng rng(4);
  Tensor a = random_tensor({3, 3}, rng);
  check_gradients([](const std::vector<Var>& in) { return mean(mul(in[0], in[0])); }, {a});
}

TEST(GradCheck, ReshapeTransposeSliceSelect) {
  Rng rng(5);
  Tensor a = random_tensor({3, 4}, rng);
  check_gradients(
      [](const std::vector<Var>& in) {
        Var r = reshape(in[0], {4, 3});
        return sum(mul(r, r));
      },
      {a});
  check_gradients(
      [](const std::vector<Var>& in) {
        Var t = transpose01(in[0]);
        return sum(mul(t, t));
      },
      {a});
  check_gradients(
      [](const std::vector<Var>& in) {
        Var s = slice_axis(in[0], 1, 1, 2);
        return sum(mul(s, s));
      },
      {a});
  check_gradients(
      [](const std::vector<Var>& in) {
        Var s = select0(in[0], 2);
        return sum(mul(s, s));
      },
      {a});
}

TEST(GradCheck, StackAndConcat) {
  Rng rng(6);
  Tensor a = random_tensor({2, 3}, rng);
  Tensor b = random_tensor({2, 3}, rng);
  check_gradients(
      [](const std::vector<Var>& in) {
        Var s = stack0({in[0], in[1]});
        return sum(mul(s, s));
      },
      {a, b});
  check_gradients(
      [](const std::vector<Var>& in) {
        Var c = concat_axis({in[0], in[1]}, 1);
        return sum(mul(c, c));
      },
      {a, b});
  check_gradients(
      [](const std::vector<Var>& in) {
        Var c = concat_axis({in[0], in[1]}, 0);
        return sum(mul(c, c));
      },
      {a, b});
}

TEST(GradCheck, MatmulAndLinear) {
  Rng rng(7);
  Tensor a = random_tensor({3, 4}, rng);
  Tensor b = random_tensor({4, 2}, rng);
  Tensor bias = random_tensor({2}, rng);
  check_gradients(
      [](const std::vector<Var>& in) {
        Var y = matmul(in[0], in[1]);
        return sum(mul(y, y));
      },
      {a, b});
  check_gradients(
      [](const std::vector<Var>& in) {
        Var y = linear(in[0], in[1], in[2]);
        return sum(mul(y, y));
      },
      {a, b, bias});
}

TEST(GradCheck, Losses) {
  Rng rng(8);
  Tensor pred = random_tensor({2, 3}, rng);
  Tensor target = random_tensor({2, 3}, rng);
  check_gradients([&](const std::vector<Var>& in) { return mse_loss(in[0], Var::constant(target)); },
                  {pred});
  // L1 away from zero-difference kinks.
  Tensor far_target = target;
  for (long i = 0; i < far_target.numel(); ++i) far_target[i] += 3.0f;
  check_gradients(
      [&](const std::vector<Var>& in) { return l1_loss(in[0], Var::constant(far_target)); },
      {pred});
  Tensor labels({2, 3});
  for (long i = 0; i < labels.numel(); ++i) labels[i] = (i % 2 == 0) ? 1.0f : 0.0f;
  check_gradients(
      [&](const std::vector<Var>& in) { return bce_with_logits(in[0], Var::constant(labels)); },
      {pred});
}

TEST(GradCheck, Conv2d) {
  Rng rng(9);
  Tensor x = random_tensor({2, 3, 5, 4}, rng);
  Tensor w = random_tensor({4, 3, 3, 3}, rng, 0.5f);
  Tensor b = random_tensor({4}, rng, 0.5f);
  check_gradients(
      [](const std::vector<Var>& in) {
        Var y = conv2d(in[0], in[1], in[2], Conv2dSpec{.stride = 1, .padding = 1});
        return mean(mul(y, y));
      },
      {x, w, b}, 1e-2f, 3e-2f);
}

TEST(GradCheck, Conv2dStride2) {
  Rng rng(10);
  Tensor x = random_tensor({1, 2, 6, 6}, rng);
  Tensor w = random_tensor({3, 2, 3, 3}, rng, 0.5f);
  Tensor b = random_tensor({3}, rng, 0.5f);
  check_gradients(
      [](const std::vector<Var>& in) {
        Var y = conv2d(in[0], in[1], in[2], Conv2dSpec{.stride = 2, .padding = 1});
        return mean(mul(y, y));
      },
      {x, w, b}, 1e-2f, 3e-2f);
}

// Central differences for every parameter element of `module` against
// the gradients backward() of `loss` deposits there.
void check_parameter_gradients(const Module& module, const std::function<Var()>& loss,
                               float eps = 1e-2f, float tol = 2e-2f) {
  module.zero_grad();
  loss().backward();
  for (Var p : module.parameters()) {
    const Tensor analytic = p.grad();
    for (long i = 0; i < p.value().numel(); ++i) {
      const float saved = p.value()[i];
      p.value_mut()[i] = saved + eps;
      const float up = loss().value()[0];
      p.value_mut()[i] = saved - eps;
      const float down = loss().value()[0];
      p.value_mut()[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(analytic[i])});
      EXPECT_NEAR(analytic[i], numeric, tol * scale) << "parameter element " << i;
    }
  }
}

TEST(GradCheck, LstmGenerate) {
  // cond [B, D] and a [T, F] clock through the generation form with a
  // sigmoid head; the loss weighs every (row, step, output) unevenly.
  const long B = 2, D = 2, F = 4, H = 3, T = 5, out = 2;
  Rng rng(11);
  const Lstm lstm(D + F, H, out, rng, Activation::kSigmoid);
  const Tensor clock = random_tensor({T, F}, rng);
  const Tensor cond = random_tensor({B, D}, rng);
  const Var weight = Var::constant(random_tensor({B, T, out}, rng));
  check_gradients(
      [&](const std::vector<Var>& in) { return sum(mul(lstm.generate(in[0], clock), weight)); },
      {cond});
  check_parameter_gradients(
      lstm, [&] { return sum(mul(lstm.generate(Var::constant(cond), clock), weight)); });
}

TEST(GradCheck, LstmCritique) {
  // A [B, T, S] series read at stride 2 (T = 5 leaves a partial stride)
  // with cond [B, D] through the critic form.
  const long B = 2, S = 2, D = 3, H = 3, T = 5, stride = 2;
  Rng rng(13);
  const Lstm lstm(S + D, H, 1, rng);
  const Tensor series = random_tensor({B, T, S}, rng);
  const Tensor cond = random_tensor({B, D}, rng);
  const Var weight = Var::constant(random_tensor({B, 1}, rng));
  check_gradients(
      [&](const std::vector<Var>& in) {
        return sum(mul(lstm.critique(in[0], in[1], stride), weight));
      },
      {series, cond});
  check_parameter_gradients(lstm, [&] {
    return sum(mul(lstm.critique(Var::constant(series), Var::constant(cond), stride), weight));
  });
}

TEST(GradCheck, ConvLstmStep) {
  // Inputs x [B,C,H,W], h_prev, c_prev [B,hidden,H,W] through one cell step.
  Rng rng(12);
  const ConvLstmCell cell(2, 3, 3, rng);
  const Var h_weight = Var::constant(random_tensor({1, 3, 4, 4}, rng));
  const Var c_weight = Var::constant(random_tensor({1, 3, 4, 4}, rng));
  check_gradients(
      [&](const std::vector<Var>& in) {
        const LstmState next = cell.step(in[0], LstmState{in[1], in[2]});
        return add(sum(mul(next.h, h_weight)), sum(mul(next.c, c_weight)));
      },
      {random_tensor({1, 2, 4, 4}, rng), random_tensor({1, 3, 4, 4}, rng),
       random_tensor({1, 3, 4, 4}, rng)});
}

TEST(OpsShapeTest, Conv2dGeometry) {
  EXPECT_EQ(conv2d_out_extent(8, 3, 2, 1), 4);
  EXPECT_EQ(conv2d_out_extent(8, 3, 1, 1), 8);
  EXPECT_EQ(conv2d_out_extent(4, 1, 1, 0), 4);
  EXPECT_THROW(conv2d_out_extent(2, 5, 1, 0), spectra::Error);
}

TEST(OpsShapeTest, MismatchesThrow) {
  Var a = Var::leaf(Tensor({2, 2}));
  Var b = Var::leaf(Tensor({3, 2}));
  EXPECT_THROW(add(a, b), spectra::Error);
  EXPECT_THROW(matmul(a, b), spectra::Error);
  EXPECT_THROW(slice_axis(a, 1, 1, 3), spectra::Error);
  EXPECT_THROW(concat_axis({a, b}, 1), spectra::Error);
}

TEST(OpsValueTest, BceMatchesManual) {
  // BCE(sigmoid(z), t) at z=0, t=1 is log(2).
  Var z = Var::leaf(Tensor({1}, {0.0f}));
  Var loss = bce_with_logits_const(z, 1.0f);
  EXPECT_NEAR(loss.value()[0], std::log(2.0f), 1e-5);
}

TEST(OpsValueTest, SigmoidStableAtExtremes) {
  Var z = Var::constant(Tensor({2}, {100.0f, -100.0f}));
  Var s = sigmoid(z);
  EXPECT_NEAR(s.value()[0], 1.0f, 1e-6);
  EXPECT_NEAR(s.value()[1], 0.0f, 1e-6);
  EXPECT_FALSE(s.value().has_nonfinite());
}

}  // namespace
}  // namespace spectra::nn
