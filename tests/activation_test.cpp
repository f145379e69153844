// The gate activations (nn/activations.h) must return the bits of the
// scalar definitions — stable_sigmoid and std::tanh — at every SIMD level
// this host supports. The vector levels port glibc's expf and fdlibm's
// tanhf/expm1f; this suite checks a deterministic subset of the 2^32
// float patterns at each level (activation_sweep checks all of them):
// every 251st pattern, each libm branch boundary ±2 ulp in both signs,
// and the one logistic input at which an unfused expf would round
// differently.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/activations.h"
#include "util/simd.h"

namespace spectra::nn {
namespace {

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kGeneric, SimdLevel::kAvx2, SimdLevel::kAvx512, SimdLevel::kNeon}) {
    if (simd_level_available(level)) levels.push_back(level);
  }
  return levels;
}

// Runs each available level over the inputs (out of place and in place)
// and fails once per (level, function) whose bits differ from the scalar
// definitions. Restores the level the process started with.
class ActivationLevels {
 public:
  ActivationLevels() : saved_(active_simd_level()), levels_(available_levels()) {}
  ~ActivationLevels() { set_simd_level(saved_); }
  ActivationLevels(const ActivationLevels&) = delete;
  ActivationLevels& operator=(const ActivationLevels&) = delete;

  void check(const std::vector<float>& x) {
    const std::size_t n = x.size();
    std::vector<float> ref_sigmoid(n), ref_tanh(n), out(n);
    for (std::size_t i = 0; i < n; ++i) {
      ref_sigmoid[i] = stable_sigmoid(x[i]);
      ref_tanh[i] = std::tanh(x[i]);
    }
    for (SimdLevel level : levels_) {
      set_simd_level(level);
      act::sigmoid(x.data(), out.data(), n);
      compare(level, "sigmoid", x, ref_sigmoid, out);
      act::tanh(x.data(), out.data(), n);
      compare(level, "tanh", x, ref_tanh, out);
      out = x;
      act::sigmoid(out.data(), out.data(), n);
      compare(level, "sigmoid in place", x, ref_sigmoid, out);
    }
  }

 private:
  static void compare(SimdLevel level, const char* what, const std::vector<float>& x,
                      const std::vector<float>& ref, const std::vector<float>& got) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      const auto want = std::bit_cast<std::uint32_t>(ref[i]);
      const auto have = std::bit_cast<std::uint32_t>(got[i]);
      if (want != have) {
        ADD_FAILURE() << simd_level_name(level) << " " << what << " of bits 0x" << std::hex
                      << std::bit_cast<std::uint32_t>(x[i]) << ": 0x" << have
                      << ", scalar 0x" << want;
        return;
      }
    }
  }

  SimdLevel saved_;
  std::vector<SimdLevel> levels_;
};

std::vector<float> from_bits(const std::vector<std::uint32_t>& bits) {
  std::vector<float> x;
  x.reserve(bits.size());
  for (std::uint32_t b : bits) x.push_back(std::bit_cast<float>(b));
  return x;
}

TEST(ActivationKernels, Every251stPatternMatchesScalarAtEveryLevel) {
  ActivationLevels levels;
  constexpr std::uint64_t kStride = 251;
  constexpr std::uint64_t kChunk = 1 << 16;
  std::vector<std::uint32_t> bits;
  bits.reserve(kChunk);
  for (std::uint64_t p = 0; p < (std::uint64_t{1} << 32); p += kStride) {
    bits.push_back(static_cast<std::uint32_t>(p));
    if (bits.size() == kChunk) {
      levels.check(from_bits(bits));
      if (testing::Test::HasFailure()) return;
      bits.clear();
    }
  }
  levels.check(from_bits(bits));
}

TEST(ActivationKernels, LibmBranchBoundariesMatchScalarAtEveryLevel) {
  // |x| bit patterns at which fdlibm tanhf (or the expm1f it calls on
  // ±2|x|) or glibc expf (on −|x|) changes branch.
  const std::uint32_t magnitudes[] = {
      0x00000000,  // ±0
      0x24000000,  // tanhf: x·(1 + x) below 2^-55
      0x32800000,  // expm1f returns its argument below |2x| = 2^-25
      0x3e317218,  // expm1f reduces above |2x| = ln2/2
      0x3f051592,  // expm1f: k = ±1 below |2x| = 1.5·ln2, k = -2 from here
      0x3f5dce9e,  // expm1f: k = -3
      0x3f800000,  // tanhf: expm1f(2|x|) from |x| = 1 (k = 3)
      0x40f98872,  // expm1f: k = 23, the 2^-k correction form
      0x4115b844,  // expm1f: |2x| >= 27·ln2
      0x419ca6b9,  // expm1f: k = 57, the exp(x) - 1 form
      0x41b00000,  // tanhf: ±1 from |x| = 22
      0x42b00000,  // expf: the |x| >= 88 branch
      std::bit_cast<std::uint32_t>(0x1.9d1d9ep6f),  // expf: least subnormal below -x
      std::bit_cast<std::uint32_t>(0x1.9fe368p6f),  // expf: zero below -x
      0x7f800000,  // ±inf, NaNs above
      0x7fc00000,  // quiet NaNs
  };
  std::vector<std::uint32_t> bits;
  for (std::uint32_t m : magnitudes) {
    for (std::uint32_t d = 0; d <= 4; ++d) {
      const std::uint32_t b = m + d - 2;
      bits.push_back(b);
      bits.push_back(b ^ 0x80000000u);
    }
  }
  ActivationLevels levels;
  levels.check(from_bits(bits));
}

TEST(ActivationKernels, FusedExpfInputMatchesScalarAtEveryLevel) {
  // exp(-63.0994606f) is 0x1.f45326p-92 with glibc's fused reduction and
  // 0x1.f45324p-92 without; sigmoid reaches it from both signs.
  ActivationLevels levels;
  levels.check(from_bits({0xc27c65d9u, 0x427c65d9u}));
}

TEST(ActivationKernels, EverySpanLengthMatchesScalarAtEveryLevel) {
  // Whole vectors plus every tail length at both widths.
  ActivationLevels levels;
  for (std::size_t n = 1; n <= 40; ++n) {
    std::vector<float> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(0.7f * static_cast<float>(i + n)) * 6.0f;
    levels.check(x);
  }
}

}  // namespace
}  // namespace spectra::nn
