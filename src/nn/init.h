// Weight initialization schemes (Glorot, Gaussian), parameterized by an
// explicit Rng so model construction is reproducible.

#pragma once

#include "nn/tensor.h"
#include "util/rng.h"

namespace spectra::nn::init {

// Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)) — Glorot/Xavier.
Tensor xavier_uniform(Shape shape, long fan_in, long fan_out, Rng& rng);

// All zeros (biases).
Tensor zeros(Shape shape);

// Normal(0, stddev).
Tensor gaussian(Shape shape, float stddev, Rng& rng);

}  // namespace spectra::nn::init
