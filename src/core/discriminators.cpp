#include "core/discriminators.h"

#include "util/error.h"

namespace spectra::core {

SpectrumDiscriminator::SpectrumDiscriminator(const SpectraGanConfig& config, Rng& rng)
    : spectrum_size_(2 * config.spectrum_bins * config.patch.traffic_h * config.patch.traffic_w),
      hidden_size_(config.hidden_channels * config.patch.traffic_h * config.patch.traffic_w),
      mlp_({spectrum_size_ + hidden_size_, config.disc_mlp_hidden, config.disc_mlp_hidden, 1},
           nn::Activation::kLeakyRelu, nn::Activation::kNone, rng) {
  register_child(mlp_);
}

nn::Var SpectrumDiscriminator::forward(const nn::Var& spectrum, const nn::Var& hidden) const {
  const long batch = spectrum.value().dim(0);
  nn::Var spec_flat = nn::reshape(spectrum, {batch, spectrum_size_});
  nn::Var hidden_flat = nn::reshape(hidden, {batch, hidden_size_});
  return mlp_.forward(nn::concat_axis({spec_flat, hidden_flat}, /*axis=*/1));
}

TimeDiscriminator::TimeDiscriminator(const SpectraGanConfig& config, Rng& rng)
    : pixels_(config.patch.traffic_h * config.patch.traffic_w),
      stride_(config.disc_time_stride),
      cond_input_(config.hidden_channels * pixels_),
      condition_(cond_input_, config.cond_dim, rng),
      lstm_(pixels_ + config.cond_dim, config.lstm_hidden, 1, rng) {
  register_child(condition_);
  register_child(lstm_);
}

nn::Var TimeDiscriminator::forward(const nn::Var& traffic, const nn::Var& hidden) const {
  SG_CHECK(traffic.value().rank() == 3, "TimeDiscriminator expects [B, T, P]");
  const long batch = traffic.value().dim(0);
  SG_CHECK(traffic.value().dim(2) == pixels_, "TimeDiscriminator pixel count mismatch");

  nn::Var cond =
      nn::vtanh(condition_.forward(nn::reshape(hidden, {batch, cond_input_})));
  // Critiquing every stride_-th step keeps the full temporal span in view
  // at a fraction of the recurrent cost.
  return lstm_.critique(traffic, cond, stride_);
}

}  // namespace spectra::core
