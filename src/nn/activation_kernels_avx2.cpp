// AVX2 gate activations (activation_simd.h): tanh on 8 float lanes, the
// logistic on 4 float lanes per 4-double expf vector. The expf port needs
// FMA, which this level's CPU check requires alongside AVX2.
//
// Compiled with -mavx2 -mfma -ffp-contract=off (see src/CMakeLists.txt);
// when the toolchain cannot target both this TU degrades to a null
// accessor and the level evaluates the scalar definitions.

#include "nn/activation_simd.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__) && \
    (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

namespace spectra::nn::act::detail {

namespace {

struct Avx2 {
  using F = __m256;
  typedef std::int32_t I __attribute__((vector_size(32)));
  typedef std::uint32_t U __attribute__((vector_size(32)));
  using Fh = __m128;
  using D = __m256d;
  typedef std::uint64_t DU __attribute__((vector_size(32)));

  static D fma(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }

  static DU exp2_table(DU i) {
    return std::bit_cast<DU>(_mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(kExp2fTable), std::bit_cast<__m256i>(i), 8));
  }
};

constexpr Kernels kAvx2Kernels = {
    apply_span<Avx2::Fh, sigmoid_block<Avx2>>,
    apply_span<Avx2::F, tanh_block<Avx2>>,
};

}  // namespace

const Kernels* kernels_avx2() { return &kAvx2Kernels; }

}  // namespace spectra::nn::act::detail

#else

namespace spectra::nn::act::detail {

const Kernels* kernels_avx2() { return nullptr; }

}  // namespace spectra::nn::act::detail

#endif
