// AVX-512 instantiation of the FFT passes (fft_kernels.h): blocks of
// 8-double vectors, and 4-double vectors where the byte budget or a
// call's lane tail leaves fewer than 8 lanes.
//
// Compiled with -mavx512f -ffp-contract=off (see src/CMakeLists.txt).
// The contract flag matters here: AVX-512F implies FMA hardware, and a
// contracted multiply-add would change the rounding of the butterflies
// and break bitwise equality with the scalar reference. When the
// toolchain cannot target AVX-512 this TU degrades to a null accessor
// and the SIMD level is unavailable.

#include "dsp/fft_kernels.h"

namespace spectra::dsp::detail {

#if defined(__x86_64__) && defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))

namespace {
constexpr FftKernels kAvx512Kernels[] = {fft_kernels_at<8>(), fft_kernels_at<4>()};
}  // namespace

const FftKernels* fft_kernels_avx512() { return kAvx512Kernels; }

#else

const FftKernels* fft_kernels_avx512() { return nullptr; }

#endif

}  // namespace spectra::dsp::detail
