// The GEMM kernel layer (nn/gemm.h) and everything routed through it:
// NN/NT/TN against an order-matched reference (exact — the blocked
// kernel's documented reduction order is reproducible in plain loops),
// im2col-conv against direct-conv across geometries, IEEE NaN/Inf
// propagation through matmul (the old kernel's zero-skip branch
// silently suppressed it), the batched LSTM input projection, and the
// steady-state no-allocation guarantee of the workspace arena.

#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "nn/conv.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace spectra::nn {
namespace {

using gemm::Trans;

// Reference implementing the kernel's documented reduction order: fresh
// per-kKC-block accumulators, p ascending within a block, blocks added to
// C in order. Exact-order match lets every comparison be bitwise.
void reference_gemm(Trans ta, Trans tb, long m, long n, long k, const float* a, long lda,
                    const float* b, long ldb, float* c, long ldc, bool accumulate) {
  for (long i = 0; i < m; ++i) {
    for (long j = 0; j < n; ++j) {
      float out = accumulate ? c[i * ldc + j] : 0.0f;
      for (long pc = 0; pc < k; pc += gemm::kKC) {
        const long kc = std::min(gemm::kKC, k - pc);
        float block = 0.0f;
        for (long p = pc; p < pc + kc; ++p) {
          const float av = ta == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
          const float bv = tb == Trans::kNo ? b[p * ldb + j] : b[j * ldb + p];
          block += av * bv;
        }
        out += block;
      }
      c[i * ldc + j] = out;
    }
  }
}

std::vector<float> random_values(long count, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void check_variant(Trans ta, Trans tb, long m, long n, long k, bool accumulate, Rng& rng) {
  const long lda = ta == Trans::kNo ? k : m;
  const long ldb = tb == Trans::kNo ? n : k;
  const std::vector<float> a = random_values(m * k, rng);
  const std::vector<float> b = random_values(k * n, rng);
  std::vector<float> c = random_values(m * n, rng);
  std::vector<float> expected = c;
  gemm::sgemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, c.data(), n, accumulate);
  reference_gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, expected.data(), n, accumulate);
  for (long i = 0; i < m * n; ++i) {
    ASSERT_EQ(c[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)])
        << "ta=" << (ta == Trans::kNo ? "N" : "T") << " tb=" << (tb == Trans::kNo ? "N" : "T")
        << " m=" << m << " n=" << n << " k=" << k << " accumulate=" << accumulate
        << " diverges at flat index " << i;
  }
}

TEST(GemmTest, RandomShapesMatchOrderedReferenceExactly) {
  Rng rng(2024);
  Rng shapes(7);
  for (int trial = 0; trial < 24; ++trial) {
    const long m = 1 + static_cast<long>(shapes.uniform_index(33));
    const long n = 1 + static_cast<long>(shapes.uniform_index(40));
    const long k = 1 + static_cast<long>(shapes.uniform_index(50));
    const bool accumulate = trial % 2 == 0;
    check_variant(Trans::kNo, Trans::kNo, m, n, k, accumulate, rng);
    check_variant(Trans::kNo, Trans::kTrans, m, n, k, accumulate, rng);
    check_variant(Trans::kTrans, Trans::kNo, m, n, k, accumulate, rng);
  }
}

TEST(GemmTest, BlockedShapesCrossEveryBlockBoundary) {
  Rng rng(11);
  // k > kKC exercises multi-block reduction, n > kNC the column blocking,
  // and the off-by-one shapes the edge tiles of the register kernel.
  check_variant(Trans::kNo, Trans::kNo, 5, 3, gemm::kKC + 37, false, rng);
  check_variant(Trans::kNo, Trans::kTrans, 3, gemm::kKC + 5, 9, true, rng);
  check_variant(Trans::kTrans, Trans::kNo, 7, gemm::kNC + 13, 21, false, rng);
  check_variant(Trans::kNo, Trans::kNo, gemm::kMR + 1, gemm::kNR + 1, 3, true, rng);
  check_variant(Trans::kNo, Trans::kNo, 1, 1, 1, false, rng);
}

// Every dispatch level must reproduce the ordered reference bitwise: the
// wider kernels change which C columns share a register, never the
// per-element reduction order. Runs whatever levels this CPU and build
// support (generic always; avx2/avx512 on x86 CI hosts).
TEST(GemmTest, EverySimdLevelMatchesOrderedReferenceExactly) {
  const SimdLevel restore = active_simd_level();
  for (const SimdLevel level :
       {SimdLevel::kGeneric, SimdLevel::kAvx2, SimdLevel::kAvx512, SimdLevel::kNeon}) {
    if (!simd_level_available(level)) continue;
    set_simd_level(level);
    Rng rng(3000 + static_cast<std::uint64_t>(level));
    // Shapes straddling each level's tile: mr up to 8, nr up to 32.
    check_variant(Trans::kNo, Trans::kNo, 9, 33, gemm::kKC + 7, false, rng);
    check_variant(Trans::kNo, Trans::kTrans, 8, 32, 19, true, rng);
    check_variant(Trans::kTrans, Trans::kNo, 3, 5, 41, false, rng);
    check_variant(Trans::kNo, Trans::kNo, 1, 1, 1, true, rng);
  }
  set_simd_level(restore);
}

TEST(GemmTest, ParseSimdLevelRoundTripsAndRejectsTypos) {
  for (const SimdLevel level :
       {SimdLevel::kGeneric, SimdLevel::kAvx2, SimdLevel::kAvx512, SimdLevel::kNeon}) {
    EXPECT_EQ(parse_simd_level(simd_level_name(level)), level);
  }
  EXPECT_THROW(parse_simd_level("avx9000"), spectra::Error);
  EXPECT_THROW(parse_simd_level(""), spectra::Error);
}

TEST(GemmTest, GenericSimdLevelIsAlwaysAvailable) {
  EXPECT_TRUE(simd_level_available(SimdLevel::kGeneric));
}

TEST(GemmTest, NaiveToleranceSanity) {
  // Independent of the order-matched reference: a plain p-ascending naive
  // product agrees to float tolerance even across k blocks.
  Rng rng(17);
  const long m = 6, n = 12, k = gemm::kKC + 50;
  const std::vector<float> a = random_values(m * k, rng);
  const std::vector<float> b = random_values(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  gemm::sgemm(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n, c.data(), n, false);
  for (long i = 0; i < m; ++i) {
    for (long j = 0; j < n; ++j) {
      double acc = 0.0;
      for (long p = 0; p < k; ++p)
        acc += static_cast<double>(a[static_cast<std::size_t>(i * k + p)]) *
               static_cast<double>(b[static_cast<std::size_t>(p * n + j)]);
      EXPECT_NEAR(c[static_cast<std::size_t>(i * n + j)], acc, 1e-4)
          << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(GemmTest, MatmulPropagatesNaNAndInfPerIeee) {
  // The pre-GEMM kernel skipped zero A entries, silently producing 0
  // where IEEE demands NaN (0 · inf) — a regression guard for that.
  Tensor ta({2, 2});
  ta[0] = 0.0f, ta[1] = 0.0f, ta[2] = 1.0f, ta[3] = 2.0f;
  Tensor tb({2, 2});
  tb[0] = std::numeric_limits<float>::infinity(), tb[1] = 1.0f;
  tb[2] = std::numeric_limits<float>::quiet_NaN(), tb[3] = 2.0f;
  Var y = matmul(Var::constant(ta), Var::constant(tb));
  // Row 0: 0·inf + 0·NaN = NaN; 0·1 + 0·2 = 0.
  EXPECT_TRUE(std::isnan(y.value()[0]));
  EXPECT_EQ(y.value()[1], 0.0f);
  // Row 1: 1·inf + 2·NaN = NaN; 1·1 + 2·2 = 5.
  EXPECT_TRUE(std::isnan(y.value()[2]));
  EXPECT_EQ(y.value()[3], 5.0f);
}

TEST(GemmTest, MatmulBackwardMatchesOrderedReference) {
  Rng rng(23);
  const long m = 9, k = 14, n = 11;
  Var a = Var::leaf(init::gaussian({m, k}, 1.0f, rng));
  Var b = Var::leaf(init::gaussian({k, n}, 1.0f, rng));
  sum(matmul(a, b)).backward();
  // d(sum)/dA = 1·Bᵀ, d(sum)/dB = Aᵀ·1 — through the same kernel order.
  std::vector<float> ones(static_cast<std::size_t>(m * n), 1.0f);
  std::vector<float> ga(static_cast<std::size_t>(m * k), 0.0f);
  std::vector<float> gb(static_cast<std::size_t>(k * n), 0.0f);
  reference_gemm(Trans::kNo, Trans::kTrans, m, k, n, ones.data(), n, b.value().data(), n,
                 ga.data(), k, true);
  reference_gemm(Trans::kTrans, Trans::kNo, k, n, m, a.value().data(), k, ones.data(), n,
                 gb.data(), n, true);
  for (long i = 0; i < m * k; ++i) ASSERT_EQ(a.grad()[i], ga[static_cast<std::size_t>(i)]);
  for (long i = 0; i < k * n; ++i) ASSERT_EQ(b.grad()[i], gb[static_cast<std::size_t>(i)]);
}

// --- im2col lowering vs direct kernels ---

struct ConvCase {
  long N, C, H, W, O, kernel, stride, padding;
};

void expect_conv_impls_agree(const ConvCase& cc) {
  Rng rng(311);
  const Tensor x0 = init::gaussian({cc.N, cc.C, cc.H, cc.W}, 1.0f, rng);
  const Tensor w0 = init::gaussian({cc.O, cc.C, cc.kernel, cc.kernel}, 0.5f, rng);
  const Tensor b0 = init::gaussian({cc.O}, 0.5f, rng);

  struct Run {
    Tensor y, gx, gw, gb;
  };
  auto run = [&](Conv2dImpl impl) {
    Var x = Var::leaf(x0);
    Var w = Var::leaf(w0);
    Var b = Var::leaf(b0);
    Conv2dSpec spec{.stride = cc.stride, .padding = cc.padding, .impl = impl};
    Var y = conv2d(x, w, b, spec);
    sum(y).backward();
    return Run{y.value(), x.grad(), w.grad(), b.grad()};
  };
  const Run direct = run(Conv2dImpl::kDirect);
  const Run lowered = run(Conv2dImpl::kIm2col);

  auto near = [&](const Tensor& a, const Tensor& b, const char* what) {
    ASSERT_TRUE(a.same_shape(b)) << what;
    for (long i = 0; i < a.numel(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-4)
          << what << " diverges at flat index " << i << " for kernel=" << cc.kernel
          << " stride=" << cc.stride << " padding=" << cc.padding;
    }
  };
  near(direct.y, lowered.y, "conv2d forward");
  near(direct.gx, lowered.gx, "conv2d grad input");
  near(direct.gw, lowered.gw, "conv2d grad weight");
  near(direct.gb, lowered.gb, "conv2d grad bias");
}

TEST(GemmTest, Im2colConvMatchesDirectAcrossGeometries) {
  // Stride/padding/kernel sweep incl. the pointwise no-copy path
  // (kh=kw=1) and a kernel larger than the input made valid by padding.
  expect_conv_impls_agree({2, 3, 7, 5, 4, 3, 1, 1});
  expect_conv_impls_agree({2, 3, 9, 7, 4, 3, 2, 1});
  expect_conv_impls_agree({3, 5, 6, 6, 7, 1, 1, 0});  // pointwise fast path
  expect_conv_impls_agree({2, 2, 6, 6, 3, 1, 2, 0});  // 1x1 but strided (col path)
  expect_conv_impls_agree({1, 2, 3, 3, 2, 5, 1, 2});  // kernel > input, padded
  expect_conv_impls_agree({2, 4, 8, 8, 6, 4, 3, 2});  // even kernel, coarse stride
}

// --- steady-state allocation guarantee ---

TEST(GemmTest, WorkspaceArenaDoesNotGrowInSteadyState) {
  set_parallel_threads(1);  // one thread: a single arena to observe
  obs::Counter& grows = obs::Registry::instance().counter("gemm.workspace_grows");
  Rng rng(59);
  const long m = 24, n = 96, k = 243;
  const std::vector<float> a = random_values(m * k, rng);
  const std::vector<float> b = random_values(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));

  gemm::sgemm(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n, c.data(), n, false);
  const std::uint64_t after_warmup = grows.value();
  for (int i = 0; i < 5; ++i) {
    gemm::sgemm(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n, c.data(), n, false);
    // Smaller problems reuse the same arena too.
    gemm::sgemm(Trans::kNo, Trans::kTrans, 6, 24, 96, a.data(), 96, b.data(), 96, c.data(), 24,
                false);
  }
  EXPECT_EQ(grows.value(), after_warmup) << "sgemm allocated in steady state";

  // The conv lowering's im2col/dcol scratch obeys the same contract.
  Var x = Var::leaf(init::gaussian({2, 3, 8, 8}, 1.0f, rng));
  Var w = Var::leaf(init::gaussian({4, 3, 3, 3}, 0.5f, rng));
  Var bias = Var::leaf(init::gaussian({4}, 0.5f, rng));
  Conv2dSpec spec{.stride = 1, .padding = 1, .impl = Conv2dImpl::kIm2col};
  sum(conv2d(x, w, bias, spec)).backward();
  const std::uint64_t after_conv_warmup = grows.value();
  for (int i = 0; i < 3; ++i) {
    x.zero_grad(), w.zero_grad(), bias.zero_grad();
    sum(conv2d(x, w, bias, spec)).backward();
  }
  EXPECT_EQ(grows.value(), after_conv_warmup) << "conv lowering allocated in steady state";
  set_parallel_threads(0);
}

// --- per-request workspaces (serving, DESIGN §6g) ---

TEST(GemmTest, WorkspaceScopeRedirectsScratchThenRestores) {
  gemm::Workspace ws;
  EXPECT_EQ(ws.bytes(), 0u);
  float* fallback = gemm::scratch(0, 16);  // thread-default arena
  {
    gemm::WorkspaceScope scope(ws);
    float* bound = gemm::scratch(0, 1024);
    ASSERT_NE(bound, nullptr);
    EXPECT_NE(bound, fallback);
    EXPECT_EQ(ws.bytes(), 1024 * sizeof(float));
    // Smaller request on the same slot reuses the arena without growth.
    EXPECT_EQ(gemm::scratch(0, 512), bound);
    EXPECT_EQ(ws.bytes(), 1024 * sizeof(float));
  }
  // Scope gone: scratch falls back to the thread-default arena.
  EXPECT_EQ(gemm::scratch(0, 16), fallback);
  ws.release();
  EXPECT_EQ(ws.bytes(), 0u);
}

TEST(GemmTest, WorkspaceScopesNest) {
  gemm::Workspace outer_ws;
  gemm::Workspace inner_ws;
  gemm::WorkspaceScope outer(outer_ws);
  float* outer_ptr = gemm::scratch(1, 64);
  {
    gemm::WorkspaceScope inner(inner_ws);
    EXPECT_NE(gemm::scratch(1, 64), outer_ptr);
    EXPECT_EQ(inner_ws.bytes(), 64 * sizeof(float));
  }
  // Inner scope popped: back to the outer workspace, same storage.
  EXPECT_EQ(gemm::scratch(1, 64), outer_ptr);
}

TEST(GemmTest, BoundWorkspaceCapturesKernelScratch) {
  set_parallel_threads(1);
  Rng rng(61);
  const long m = 24, n = 96, k = 48;
  const std::vector<float> a = random_values(m * k, rng);
  const std::vector<float> b = random_values(k * n, rng);
  std::vector<float> c_default(static_cast<std::size_t>(m * n));
  std::vector<float> c_bound(static_cast<std::size_t>(m * n));

  gemm::sgemm(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n, c_default.data(), n,
              false);
  gemm::Workspace ws;
  {
    gemm::WorkspaceScope scope(ws);
    gemm::sgemm(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n, c_bound.data(), n,
                false);
  }
  // The bound arena held the packed panels...
  EXPECT_GT(ws.bytes(), 0u);
  // ...and the result is bitwise the same as through the default arena.
  for (long i = 0; i < m * n; ++i) {
    ASSERT_EQ(c_bound[static_cast<std::size_t>(i)], c_default[static_cast<std::size_t>(i)]);
  }
  set_parallel_threads(0);
}

}  // namespace
}  // namespace spectra::nn
