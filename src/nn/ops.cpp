#include "nn/ops.h"

#include <cmath>

#include "nn/activations.h"
#include "nn/gemm.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace spectra::nn {

namespace {

void check_same_shape(const Var& a, const Var& b, const char* op) {
  SG_CHECK(a.value().same_shape(b.value()),
           std::string(op) + ": shape mismatch " + shape_to_string(a.value().shape()) + " vs " +
               shape_to_string(b.value().shape()));
}

// Shared implementation for unary elementwise ops: forward maps x -> f(x),
// backward multiplies the output gradient by df computed from (x, y).
template <typename Fwd, typename Dfn>
Var unary_op(const Var& a, Fwd f, Dfn df) {
  const Tensor& x = a.value();
  Tensor y(x.shape());
  const long n = x.numel();
  for (long i = 0; i < n; ++i) y[i] = f(x[i]);
  Tensor y_copy = y;  // captured for backward closures needing f(x)
  return Var::make_op(std::move(y), {a},
                      [df, y_copy](const Tensor& out_grad, std::vector<Var>& parents) {
                        if (!parents[0].requires_grad()) return;
                        const Tensor& px = parents[0].value();
                        Tensor& gx = parents[0].grad_storage();
                        const long pn = px.numel();
                        for (long i = 0; i < pn; ++i) gx[i] += out_grad[i] * df(px[i], y_copy[i]);
                      });
}

}  // namespace

Var add(const Var& a, const Var& b) {
  check_same_shape(a, b, "add");
  Tensor y = a.value();
  y.add_(b.value());
  return Var::make_op(std::move(y), {a, b}, [](const Tensor& g, std::vector<Var>& parents) {
    for (Var& p : parents) {
      if (p.requires_grad()) p.grad_storage().add_(g);
    }
  });
}

Var sub(const Var& a, const Var& b) {
  check_same_shape(a, b, "sub");
  const Tensor& xa = a.value();
  const Tensor& xb = b.value();
  Tensor y(xa.shape());
  const long n = xa.numel();
  for (long i = 0; i < n; ++i) y[i] = xa[i] - xb[i];
  return Var::make_op(std::move(y), {a, b}, [](const Tensor& g, std::vector<Var>& parents) {
    if (parents[0].requires_grad()) parents[0].grad_storage().add_(g);
    if (parents[1].requires_grad()) {
      Tensor& gb = parents[1].grad_storage();
      const long gn = g.numel();
      for (long i = 0; i < gn; ++i) gb[i] -= g[i];
    }
  });
}

Var mul(const Var& a, const Var& b) {
  check_same_shape(a, b, "mul");
  const Tensor& xa = a.value();
  const Tensor& xb = b.value();
  Tensor y(xa.shape());
  const long n = xa.numel();
  for (long i = 0; i < n; ++i) y[i] = xa[i] * xb[i];
  return Var::make_op(std::move(y), {a, b}, [](const Tensor& g, std::vector<Var>& parents) {
    const Tensor& pa = parents[0].value();
    const Tensor& pb = parents[1].value();
    const long gn = g.numel();
    if (parents[0].requires_grad()) {
      Tensor& ga = parents[0].grad_storage();
      for (long i = 0; i < gn; ++i) ga[i] += g[i] * pb[i];
    }
    if (parents[1].requires_grad()) {
      Tensor& gb = parents[1].grad_storage();
      for (long i = 0; i < gn; ++i) gb[i] += g[i] * pa[i];
    }
  });
}

Var divide(const Var& a, const Var& b) {
  check_same_shape(a, b, "divide");
  const Tensor& xa = a.value();
  const Tensor& xb = b.value();
  Tensor y(xa.shape());
  const long n = xa.numel();
  for (long i = 0; i < n; ++i) y[i] = xa[i] / xb[i];
  return Var::make_op(std::move(y), {a, b}, [](const Tensor& g, std::vector<Var>& parents) {
    const Tensor& pa = parents[0].value();
    const Tensor& pb = parents[1].value();
    const long gn = g.numel();
    if (parents[0].requires_grad()) {
      Tensor& ga = parents[0].grad_storage();
      for (long i = 0; i < gn; ++i) ga[i] += g[i] / pb[i];
    }
    if (parents[1].requires_grad()) {
      Tensor& gb = parents[1].grad_storage();
      for (long i = 0; i < gn; ++i) gb[i] -= g[i] * pa[i] / (pb[i] * pb[i]);
    }
  });
}

Var add_scalar(const Var& a, float s) {
  return unary_op(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Var mul_scalar(const Var& a, float s) {
  return unary_op(
      a, [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Var neg(const Var& a) { return mul_scalar(a, -1.0f); }

Var relu(const Var& a) {
  return unary_op(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Var leaky_relu(const Var& a, float negative_slope) {
  return unary_op(
      a, [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) { return x > 0.0f ? 1.0f : negative_slope; });
}

Var vtanh(const Var& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); }, [](float, float y) { return 1.0f - y * y; });
}

Var sigmoid(const Var& a) {
  return unary_op(
      a, [](float x) { return stable_sigmoid(x); }, [](float, float y) { return y * (1.0f - y); });
}

Var vexp(const Var& a) {
  return unary_op(
      a, [](float x) { return std::exp(x); }, [](float, float y) { return y; });
}

Var vlog(const Var& a, float eps) {
  return unary_op(
      a, [eps](float x) { return std::log(x + eps); },
      [eps](float x, float) { return 1.0f / (x + eps); });
}

Var softplus(const Var& a) {
  return unary_op(
      a,
      [](float x) {
        // log(1 + e^x) without overflow for large |x|.
        return x > 20.0f ? x : (x < -20.0f ? std::exp(x) : std::log1p(std::exp(x)));
      },
      [](float x, float) {
        if (x >= 0.0f) {
          const float e = std::exp(-x);
          return 1.0f / (1.0f + e);
        }
        const float e = std::exp(x);
        return e / (1.0f + e);
      });
}

Var vabs(const Var& a) {
  return unary_op(
      a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x >= 0.0f ? 1.0f : -1.0f; });
}

Var sum(const Var& a) {
  Tensor y = Tensor::scalar(a.value().sum());
  return Var::make_op(std::move(y), {a}, [](const Tensor& g, std::vector<Var>& parents) {
    if (!parents[0].requires_grad()) return;
    Tensor& ga = parents[0].grad_storage();
    const float gv = g[0];
    const long n = ga.numel();
    for (long i = 0; i < n; ++i) ga[i] += gv;
  });
}

Var mean(const Var& a) {
  const long n = a.value().numel();
  SG_CHECK(n > 0, "mean of empty tensor");
  return mul_scalar(sum(a), 1.0f / static_cast<float>(n));
}

Var reshape(const Var& a, Shape new_shape) {
  Tensor y = a.value().reshaped(std::move(new_shape));
  Shape original = a.value().shape();
  return Var::make_op(std::move(y), {a},
                      [original](const Tensor& g, std::vector<Var>& parents) {
                        if (!parents[0].requires_grad()) return;
                        parents[0].grad_storage().add_(g.reshaped(original));
                      });
}

namespace {

// Decompose a shape around `axis` into (outer, extent, inner) so the
// slice/concat kernels can iterate blocks contiguously.
struct AxisSplit {
  long outer = 1;
  long extent = 1;
  long inner = 1;
};

AxisSplit split_at_axis(const Shape& shape, int axis) {
  SG_CHECK(axis >= 0 && axis < static_cast<int>(shape.size()), "axis out of range");
  AxisSplit split;
  for (int i = 0; i < axis; ++i) split.outer *= shape[static_cast<std::size_t>(i)];
  split.extent = shape[static_cast<std::size_t>(axis)];
  for (std::size_t i = static_cast<std::size_t>(axis) + 1; i < shape.size(); ++i) {
    split.inner *= shape[i];
  }
  return split;
}

}  // namespace

Var slice_axis(const Var& a, int axis, long start, long len) {
  const Tensor& x = a.value();
  const AxisSplit split = split_at_axis(x.shape(), axis);
  SG_CHECK(start >= 0 && len > 0 && start + len <= split.extent, "slice_axis bounds out of range");

  Shape out_shape = x.shape();
  out_shape[static_cast<std::size_t>(axis)] = len;
  Tensor y(out_shape);
  for (long o = 0; o < split.outer; ++o) {
    const float* src = x.data() + (o * split.extent + start) * split.inner;
    float* dst = y.data() + o * len * split.inner;
    std::copy(src, src + len * split.inner, dst);
  }
  return Var::make_op(std::move(y), {a},
                      [split, start, len](const Tensor& g, std::vector<Var>& parents) {
                        if (!parents[0].requires_grad()) return;
                        Tensor& ga = parents[0].grad_storage();
                        for (long o = 0; o < split.outer; ++o) {
                          const float* src = g.data() + o * len * split.inner;
                          float* dst = ga.data() + (o * split.extent + start) * split.inner;
                          const long block = len * split.inner;
                          for (long i = 0; i < block; ++i) dst[i] += src[i];
                        }
                      });
}

Var slice_cols(const Var& a, long start, long len) {
  SG_CHECK(a.value().rank() == 2, "slice_cols requires a rank-2 tensor");
  return slice_axis(a, 1, start, len);
}

Var select0(const Var& a, long i) {
  SG_CHECK(a.value().rank() >= 1, "select0 requires rank >= 1");
  Var sliced = slice_axis(a, 0, i, 1);
  Shape squeezed(sliced.value().shape().begin() + 1, sliced.value().shape().end());
  return reshape(sliced, std::move(squeezed));
}

Var stack0(const std::vector<Var>& parts) {
  SG_CHECK(!parts.empty(), "stack0 of empty list");
  const Shape& part_shape = parts[0].value().shape();
  const long part_numel = parts[0].value().numel();
  for (const Var& p : parts) {
    SG_CHECK(p.value().shape() == part_shape, "stack0 parts must share a shape");
  }
  Shape out_shape;
  out_shape.push_back(static_cast<long>(parts.size()));
  out_shape.insert(out_shape.end(), part_shape.begin(), part_shape.end());
  Tensor y(out_shape);
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const float* src = parts[k].value().data();
    std::copy(src, src + part_numel, y.data() + static_cast<long>(k) * part_numel);
  }
  return Var::make_op(std::move(y), parts,
                      [part_numel](const Tensor& g, std::vector<Var>& parents) {
                        for (std::size_t k = 0; k < parents.size(); ++k) {
                          if (!parents[k].requires_grad()) continue;
                          Tensor& gp = parents[k].grad_storage();
                          const float* src = g.data() + static_cast<long>(k) * part_numel;
                          for (long i = 0; i < part_numel; ++i) gp[i] += src[i];
                        }
                      });
}

Var concat_axis(const std::vector<Var>& parts, int axis) {
  SG_CHECK(!parts.empty(), "concat_axis of empty list");
  const Shape& base = parts[0].value().shape();
  long total_extent = 0;
  for (const Var& p : parts) {
    const Shape& s = p.value().shape();
    SG_CHECK(s.size() == base.size(), "concat_axis rank mismatch");
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (static_cast<int>(i) == axis) continue;
      SG_CHECK(s[i] == base[i], "concat_axis non-axis extents must match");
    }
    total_extent += s[static_cast<std::size_t>(axis)];
  }
  Shape out_shape = base;
  out_shape[static_cast<std::size_t>(axis)] = total_extent;
  const AxisSplit out_split = split_at_axis(out_shape, axis);

  Tensor y(out_shape);
  std::vector<long> extents;
  extents.reserve(parts.size());
  long cursor = 0;
  for (const Var& p : parts) {
    const long extent = p.value().shape()[static_cast<std::size_t>(axis)];
    extents.push_back(extent);
    const AxisSplit in_split = split_at_axis(p.value().shape(), axis);
    for (long o = 0; o < in_split.outer; ++o) {
      const float* src = p.value().data() + o * extent * in_split.inner;
      float* dst = y.data() + (o * out_split.extent + cursor) * out_split.inner;
      std::copy(src, src + extent * in_split.inner, dst);
    }
    cursor += extent;
  }
  return Var::make_op(
      std::move(y), parts, [out_split, extents](const Tensor& g, std::vector<Var>& parents) {
        long gcursor = 0;
        for (std::size_t k = 0; k < parents.size(); ++k) {
          const long extent = extents[k];
          if (parents[k].requires_grad()) {
            Tensor& gp = parents[k].grad_storage();
            for (long o = 0; o < out_split.outer; ++o) {
              const float* src = g.data() + (o * out_split.extent + gcursor) * out_split.inner;
              float* dst = gp.data() + o * extent * out_split.inner;
              const long block = extent * out_split.inner;
              for (long i = 0; i < block; ++i) dst[i] += src[i];
            }
          }
          gcursor += extent;
        }
      });
}

namespace {
Tensor transpose01_tensor(const Tensor& x) {
  const long a_extent = x.dim(0);
  const long b_extent = x.dim(1);
  long inner = 1;
  for (int i = 2; i < x.rank(); ++i) inner *= x.dim(i);
  Shape out_shape = x.shape();
  std::swap(out_shape[0], out_shape[1]);
  Tensor y(out_shape);
  for (long i = 0; i < a_extent; ++i) {
    for (long j = 0; j < b_extent; ++j) {
      const float* src = x.data() + (i * b_extent + j) * inner;
      float* dst = y.data() + (j * a_extent + i) * inner;
      std::copy(src, src + inner, dst);
    }
  }
  return y;
}
}  // namespace

Var transpose01(const Var& a) {
  SG_CHECK(a.value().rank() >= 2, "transpose01 requires rank >= 2");
  return Var::make_op(transpose01_tensor(a.value()), {a},
                      [](const Tensor& g, std::vector<Var>& parents) {
                        if (!parents[0].requires_grad()) return;
                        parents[0].grad_storage().add_(transpose01_tensor(g));
                      });
}

Var matmul(const Var& a, const Var& b) {
  const Tensor& xa = a.value();
  const Tensor& xb = b.value();
  SG_CHECK(xa.rank() == 2 && xb.rank() == 2, "matmul requires rank-2 operands");
  const long m = xa.dim(0), k = xa.dim(1), k2 = xb.dim(0), n = xb.dim(1);
  SG_CHECK(k == k2, "matmul inner dimensions must agree");

  // Forward and both backward products run on the blocked GEMM kernel
  // (nn/gemm.h): full IEEE semantics (no zero-skip shortcuts, so
  // NaN/Inf propagate), parallel over disjoint row panels.
  Tensor y({m, n});
  gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, m, n, k, xa.data(), k, xb.data(), n, y.data(),
              n, /*accumulate=*/false);
  return Var::make_op(std::move(y), {a, b},
                      [m, k, n](const Tensor& g, std::vector<Var>& parents) {
                        const Tensor& pa = parents[0].value();
                        const Tensor& pb = parents[1].value();
                        if (parents[0].requires_grad()) {
                          // dA += G · Bᵀ — NT variant, no transpose materialized.
                          Tensor& ga = parents[0].grad_storage();
                          gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kTrans, m, k, n, g.data(), n,
                                      pb.data(), n, ga.data(), k, /*accumulate=*/true);
                        }
                        if (parents[1].requires_grad()) {
                          // dB += Aᵀ · G — TN variant.
                          Tensor& gb = parents[1].grad_storage();
                          gemm::sgemm(gemm::Trans::kTrans, gemm::Trans::kNo, k, n, m, pa.data(), k,
                                      g.data(), n, gb.data(), n, /*accumulate=*/true);
                        }
                      });
}

Var add_rowvec(const Var& a, const Var& bias) {
  const Tensor& x = a.value();
  const Tensor& b = bias.value();
  SG_CHECK(x.rank() == 2 && b.rank() == 1, "add_rowvec expects [m,n] and [n]");
  const long m = x.dim(0), n = x.dim(1);
  SG_CHECK(b.dim(0) == n, "add_rowvec bias length mismatch");
  Tensor y(x.shape());
  for (long i = 0; i < m; ++i) {
    for (long j = 0; j < n; ++j) y[i * n + j] = x[i * n + j] + b[j];
  }
  return Var::make_op(std::move(y), {a, bias},
                      [m, n](const Tensor& g, std::vector<Var>& parents) {
                        if (parents[0].requires_grad()) parents[0].grad_storage().add_(g);
                        if (parents[1].requires_grad()) {
                          // Column reduction parallelized over disjoint
                          // column slices; per-column order stays
                          // i-ascending, matching the serial code.
                          Tensor& gb = parents[1].grad_storage();
                          float* pgb = gb.data();
                          const float* pg = g.data();
                          parallel_for(static_cast<std::size_t>(n), /*grain=*/16,
                                       [&](std::size_t jb, std::size_t je) {
                                         for (long i = 0; i < m; ++i) {
                                           const float* grow = pg + i * n;
                                           for (std::size_t j = jb; j < je; ++j) {
                                             pgb[j] += grow[j];
                                           }
                                         }
                                       });
                        }
                      });
}

Var linear(const Var& x, const Var& weight, const Var& bias) {
  return add_rowvec(matmul(x, weight), bias);
}

Var mse_loss(const Var& pred, const Var& target) {
  check_same_shape(pred, target, "mse_loss");
  Var diff = sub(pred, target);
  return mean(mul(diff, diff));
}

Var l1_loss(const Var& pred, const Var& target) {
  check_same_shape(pred, target, "l1_loss");
  return mean(vabs(sub(pred, target)));
}

Var bce_with_logits(const Var& logits, const Var& target) {
  check_same_shape(logits, target, "bce_with_logits");
  const Tensor& z = logits.value();
  const Tensor& t = target.value();
  const long n = z.numel();
  // loss_i = max(z,0) - z*t + log(1+exp(-|z|)); fused forward + backward.
  double total = 0.0;
  for (long i = 0; i < n; ++i) {
    const float zi = z[i];
    total += static_cast<double>(std::max(zi, 0.0f) - zi * t[i] +
                                 std::log1p(std::exp(-std::fabs(zi))));
  }
  Tensor y = Tensor::scalar(static_cast<float>(total / static_cast<double>(n)));
  return Var::make_op(std::move(y), {logits, target},
                      [n](const Tensor& g, std::vector<Var>& parents) {
                        const Tensor& pz = parents[0].value();
                        const Tensor& pt = parents[1].value();
                        const float scale = g[0] / static_cast<float>(n);
                        if (parents[0].requires_grad()) {
                          Tensor& gz = parents[0].grad_storage();
                          for (long i = 0; i < n; ++i) {
                            gz[i] += scale * (stable_sigmoid(pz[i]) - pt[i]);
                          }
                        }
                        // Targets are constants in every caller; no grad needed.
                      });
}

Var bce_with_logits_const(const Var& logits, float label) {
  Var target = Var::constant(Tensor::full(logits.value().shape(), label));
  return bce_with_logits(logits, target);
}

}  // namespace spectra::nn
