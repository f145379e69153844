// Adversarial critics (§2.2.3, Fig. 3b): a shared discriminator-side
// context encoder E^R feeding
//   * R^s — an MLP over the (masked) spectrum patch, and
//   * R^t — a batched LSTM over the time-domain patch,
// each emitting one real/fake logit per sample.

#pragma once

#include "core/config.h"
#include "core/encoder.h"
#include "nn/layers.h"
#include "nn/lstm.h"

namespace spectra::core {

class SpectrumDiscriminator : public nn::Module {
 public:
  SpectrumDiscriminator(const SpectraGanConfig& config, Rng& rng);

  // spectrum: [B, 2*Fgen, P]; hidden: [B, C_h, Ht, Wt]. Returns logits [B, 1].
  nn::Var forward(const nn::Var& spectrum, const nn::Var& hidden) const;

 private:
  long spectrum_size_;
  long hidden_size_;
  nn::Mlp mlp_;
};

class TimeDiscriminator : public nn::Module {
 public:
  TimeDiscriminator(const SpectraGanConfig& config, Rng& rng);

  // traffic: [B, T, P]; hidden: [B, C_h, Ht, Wt]. Returns logits [B, 1]
  // (mean of per-step critic outputs).
  nn::Var forward(const nn::Var& traffic, const nn::Var& hidden) const;

 private:
  long pixels_;
  long stride_;
  long cond_input_;
  nn::Linear condition_;
  nn::Lstm lstm_;  // critic form over [traffic step, cond]
};

}  // namespace spectra::core
