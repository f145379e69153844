#include "nn/init.h"

#include <cmath>

#include "util/error.h"

namespace spectra::nn::init {

Tensor xavier_uniform(Shape shape, long fan_in, long fan_out, Rng& rng) {
  SG_CHECK(fan_in > 0 && fan_out > 0, "xavier_uniform requires positive fans");
  const double a = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  Tensor t(std::move(shape));
  const long n = t.numel();
  for (long i = 0; i < n; ++i) t[i] = static_cast<float>(rng.uniform(-a, a));
  return t;
}

Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor gaussian(Shape shape, float stddev, Rng& rng) {
  Tensor t(std::move(shape));
  const long n = t.numel();
  for (long i = 0; i < n; ++i) t[i] = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

}  // namespace spectra::nn::init
