// AVX-512 gate activations (activation_simd.h): tanh on 16 float lanes,
// the logistic on 8 float lanes per 8-double expf vector.
//
// Compiled with -mavx512f -ffp-contract=off (see src/CMakeLists.txt);
// when the toolchain cannot target AVX-512 this TU degrades to a null
// accessor and the level evaluates the scalar definitions.

#include "nn/activation_simd.h"

#if defined(__x86_64__) && defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

namespace spectra::nn::act::detail {

namespace {

struct Avx512 {
  using F = __m512;
  typedef std::int32_t I __attribute__((vector_size(64)));
  typedef std::uint32_t U __attribute__((vector_size(64)));
  using Fh = __m256;
  using D = __m512d;
  typedef std::uint64_t DU __attribute__((vector_size(64)));

  static D fma(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }

  // The 32 entries sit in four registers: each two-register permute
  // picks by the low four index bits, and bit 4 chooses the pair.
  static DU exp2_table(DU i) {
    const __m512i idx = std::bit_cast<__m512i>(i);
    const __m512i low = _mm512_permutex2var_epi64(_mm512_load_si512(kExp2fTable), idx,
                                                  _mm512_load_si512(kExp2fTable + 8));
    const __m512i high = _mm512_permutex2var_epi64(_mm512_load_si512(kExp2fTable + 16), idx,
                                                   _mm512_load_si512(kExp2fTable + 24));
    const __mmask8 upper = _mm512_test_epi64_mask(idx, _mm512_set1_epi64(16));
    return std::bit_cast<DU>(_mm512_mask_blend_epi64(upper, low, high));
  }
};

constexpr Kernels kAvx512Kernels = {
    apply_span<Avx512::Fh, sigmoid_block<Avx512>>,
    apply_span<Avx512::F, tanh_block<Avx512>>,
};

}  // namespace

const Kernels* kernels_avx512() { return &kAvx512Kernels; }

}  // namespace spectra::nn::act::detail

#else

namespace spectra::nn::act::detail {

const Kernels* kernels_avx512() { return nullptr; }

}  // namespace spectra::nn::act::detail

#endif
