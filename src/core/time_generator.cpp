#include "core/time_generator.h"

#include <cmath>

#include "util/error.h"

namespace spectra::core {

nn::Tensor clock_table(long steps, long steps_per_day, bool include_week) {
  SG_CHECK(steps > 0 && steps_per_day > 0, "invalid time encoding geometry");
  nn::Tensor table({steps, kTimeFeatures});
  for (long t = 0; t < steps; ++t) {
    const double day_phase = 2.0 * M_PI * static_cast<double>(t % steps_per_day) /
                             static_cast<double>(steps_per_day);
    const double week_phase = 2.0 * M_PI * static_cast<double>(t % (7 * steps_per_day)) /
                              static_cast<double>(7 * steps_per_day);
    float* row = table.data() + t * kTimeFeatures;
    row[0] = static_cast<float>(std::sin(day_phase));
    row[1] = static_cast<float>(std::cos(day_phase));
    // Zero features stay in the input: skipping their +0·w terms could
    // flip the sign of a zero sum.
    row[2] = include_week ? static_cast<float>(std::sin(week_phase)) : 0.0f;
    row[3] = include_week ? static_cast<float>(std::cos(week_phase)) : 0.0f;
  }
  return table;
}

TimeGenerator::TimeGenerator(const SpectraGanConfig& config, Rng& rng)
    : pixels_(config.patch.traffic_h * config.patch.traffic_w),
      steps_per_day_(config.steps_per_day),
      cond_input_((config.hidden_channels + config.noise_channels) * pixels_),
      condition_(cond_input_, config.cond_dim, rng),
      lstm_(config.cond_dim + kTimeFeatures, config.lstm_hidden, pixels_, rng,
            nn::Activation::kNone) {
  register_child(condition_);
  register_child(lstm_);
}

nn::Var TimeGenerator::forward(const nn::Var& hidden, const nn::Var& noise, long steps) const {
  SG_CHECK(steps > 0, "TimeGenerator requires steps > 0");
  const long batch = hidden.value().dim(0);
  nn::Var flat = nn::reshape(nn::concat_axis({hidden, noise}, /*axis=*/1), {batch, cond_input_});
  nn::Var cond = nn::vtanh(condition_.forward(flat));
  return lstm_.generate(cond, clock_table(steps, steps_per_day_));
}

}  // namespace spectra::core
