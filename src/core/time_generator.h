// Residual time-series generator G^t (§2.2.2): a batched LSTM driven by
// a conditioning vector distilled from the hidden context representation
// and the noise, emitting the non-periodic residual traffic of every
// pixel of the patch at each step (Fig. 1f).

#pragma once

#include "core/config.h"
#include "nn/layers.h"
#include "nn/lstm.h"

namespace spectra::core {

// Number of time-encoding features appended per step.
inline constexpr long kTimeFeatures = 4;

// The clock of conditioned recurrent generation as a [steps,
// kTimeFeatures] table: row t is [sin/cos(2 pi t / day), sin/cos(2 pi t /
// week)]. The explicit clock mirrors DoppelGANger's batched-step
// conditioning and lets the recurrent generators lock onto circadian
// phase in few iterations; periodicity *content* still has to be learned.
// `include_week=false` zeroes the weekly phase features: used by the
// RNN-only baselines, whose inability to track long-horizon structure is
// precisely the weakness SpectraGAN's spectrum branch addresses (§2.1.1);
// handing them the weekly clock would erase the effect under study.
nn::Tensor clock_table(long steps, long steps_per_day, bool include_week = true);

class TimeGenerator : public nn::Module {
 public:
  TimeGenerator(const SpectraGanConfig& config, Rng& rng);

  // hidden: [B, C_h, Ht, Wt]; noise: [B, Z, Ht, Wt].
  // Returns the residual traffic [B, steps, P] with P = Ht*Wt: the LSTM's
  // generation form, step t's input being [cond, clock row t].
  nn::Var forward(const nn::Var& hidden, const nn::Var& noise, long steps) const;

 private:
  long pixels_;         // P
  long steps_per_day_;  // phase reference for the time encoding
  long cond_input_;     // flattened hidden + noise size
  nn::Linear condition_;  // distill to cond_dim
  nn::Lstm lstm_;
};

}  // namespace spectra::core
