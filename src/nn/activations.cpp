#include "nn/activations.h"

#include "nn/activation_simd.h"
#include "util/simd.h"

namespace spectra::nn::act {

namespace {

// The vector kernels of the active level, or nullptr where the level
// evaluates the scalar definitions (generic, NEON, or a build without
// the ISA).
const detail::Kernels* active_kernels() {
  switch (active_simd_level()) {
    case SimdLevel::kAvx2:
      return detail::kernels_avx2();
    case SimdLevel::kAvx512:
      return detail::kernels_avx512();
    case SimdLevel::kGeneric:
    case SimdLevel::kNeon:
      break;
  }
  return nullptr;
}

}  // namespace

void sigmoid(const float* x, float* y, std::size_t n) {
  if (const detail::Kernels* k = active_kernels()) {
    k->sigmoid(x, y, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) y[i] = stable_sigmoid(x[i]);
}

void tanh(const float* x, float* y, std::size_t n) {
  if (const detail::Kernels* k = active_kernels()) {
    k->tanh(x, y, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

}  // namespace spectra::nn::act
