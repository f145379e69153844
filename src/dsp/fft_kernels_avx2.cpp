// AVX2 instantiation of the FFT passes (fft_kernels.h): blocks of
// 4-double vectors.
//
// Compiled with -mavx2 -ffp-contract=off (see src/CMakeLists.txt); when
// the toolchain cannot target AVX2 this TU degrades to a null accessor
// and the SIMD level is unavailable.

#include "dsp/fft_kernels.h"

namespace spectra::dsp::detail {

#if defined(__x86_64__) && defined(__AVX2__) && (defined(__GNUC__) || defined(__clang__))

namespace {
constexpr FftKernels kAvx2Kernels[] = {fft_kernels_at<4>()};
}  // namespace

const FftKernels* fft_kernels_avx2() { return kAvx2Kernels; }

#else

const FftKernels* fft_kernels_avx2() { return nullptr; }

#endif

}  // namespace spectra::dsp::detail
