#include "core/config.h"

#include "core/time_generator.h"
#include "nn/gemm.h"
#include "util/error.h"

namespace spectra::core {

void SpectraGanConfig::validate() const {
  patch.validate();
  SG_CHECK(context_channels > 0, "context_channels must be positive");
  SG_CHECK(train_steps >= 8, "train_steps too small");
  SG_CHECK(steps_per_day > 0 && train_steps % steps_per_day == 0,
           "train_steps must be a multiple of steps_per_day");
  SG_CHECK(hidden_channels > 0 && noise_channels >= 0, "invalid channel counts");
  SG_CHECK(spectrum_bins >= 2 && spectrum_bins <= full_bins(),
           "spectrum_bins must be in [2, train_steps/2+1]");
  SG_CHECK(lstm_hidden > 0 && cond_dim > 0, "invalid recurrent sizes");
  SG_CHECK(disc_time_stride >= 1, "disc_time_stride must be at least 1");
  // nn::Lstm::generate splits the recurrent generators' input projection
  // at cond_dim; that equals the per-step graph's one GEMM only while the
  // input fits a single GEMM k block.
  SG_CHECK(cond_dim + kTimeFeatures <= nn::gemm::kKC,
           "cond_dim + time features must not exceed the GEMM k block (nn::gemm::kKC)");
  SG_CHECK(mask_quantile > 0.0f && mask_quantile < 1.0f, "mask_quantile must be in (0,1)");
  SG_CHECK(lambda_l1 >= 0.0f, "lambda_l1 must be non-negative");
  SG_CHECK(use_spectrum_generator || use_time_generator,
           "at least one of spectrum/time generators must be enabled");
  SG_CHECK(iterations > 0 && batch > 0, "invalid training plan");
}

}  // namespace spectra::core
