// Gate activations of the fused LSTM step over contiguous float spans
// (DESIGN.md §6c "gate activations").
//
// The scalar definitions, stable_sigmoid below and std::tanh, are the
// library's only logistic and tanh: the unary sigmoid/vtanh ops, the BCE
// backward and the generic/NEON dispatch levels all evaluate them. The AVX2 (8-lane, with FMA) and
// AVX-512 (16-lane) levels run vector ports of the libm algorithms
// behind std::exp(float) and std::tanh(float) on x86-64 glibc (2.27 and
// later) — `__expf_fma` and fdlibm's tanhf/expm1f — so every level
// returns the scalar code's bits for every input, NaN payloads included.
// activation_test checks that at each level, and the exhaustive
// activation_sweep checks all 2^32 inputs; a host whose libm computes
// other bits fails both.

#pragma once

#include <cmath>
#include <cstddef>

namespace spectra::nn {

// Logistic, stable for both signs of x.
inline float stable_sigmoid(float x) {
  if (x >= 0.0f) {
    const float e = std::exp(-x);
    return 1.0f / (1.0f + e);
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

namespace act {

// y[i] = stable_sigmoid(x[i]) for i < n, at the active SIMD level
// (util/simd.h). x and y may be the same span; otherwise they must not
// overlap.
void sigmoid(const float* x, float* y, std::size_t n);

// y[i] = std::tanh(x[i]) for i < n, same contract as sigmoid().
void tanh(const float* x, float* y, std::size_t n);

}  // namespace act
}  // namespace spectra::nn
