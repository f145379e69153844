// DoppelGANger baseline (§3.3): conditional time-series GAN [46]. The
// original has no spatial dimension; applied to spatiotemporal traffic it
// models every pixel independently, conditioned on that pixel's own
// context attributes. (The paper instantiates one DoppelGANger per pixel;
// we share one set of weights conditioned per pixel — same independence
// structure, tractable at our scale. Documented in DESIGN.md.)
//
// The expected failure mode — spatial artifacts and poor SSIM, reasonable
// temporal metrics — comes from the per-pixel independence, which this
// implementation preserves exactly: independent noise per pixel and no
// information flow between pixels.

#pragma once

#include <memory>

#include "baselines/model_api.h"
#include "nn/layers.h"
#include "nn/lstm.h"

namespace spectra::baselines {

class DoppelGanger : public TrafficGenerator {
 public:
  explicit DoppelGanger(const core::SpectraGanConfig& config);

  std::string name() const override { return "DoppelGANger"; }

  void fit(const data::CountryDataset& dataset, const std::vector<std::size_t>& train_cities,
           long train_steps, Rng& rng) override;

  geo::CityTensor generate(const data::City& target, long steps, Rng& rng) override;

 private:
  // Per-pixel context (27) + noise -> conditioning vector.
  nn::Var condition(const nn::Var& pixel_context, const nn::Var& noise) const;

  // Normalized-series generator forward: [B, steps] in (0,1).
  nn::Var series_forward(const nn::Var& cond, long steps) const;

  // DoppelGANger's auto-normalization: a dedicated metadata generator
  // samples each series' amplitude (its "min/max generator") from
  // (context, noise). It is trained adversarially only, so it keeps
  // noise-driven variance — the per-pixel amplitude jitter behind the
  // spatial artifacts the paper reports for this baseline.
  nn::Var amplitude_forward(const nn::Var& pixel_context, const nn::Var& amp_noise) const;

  core::SpectraGanConfig config_;
  Rng model_rng_;
  long noise_dim_ = 8;

  std::unique_ptr<nn::Mlp> embed_;   // context+noise -> cond
  std::unique_ptr<nn::Lstm> gen_;    // cond -> per-step scalar
  std::unique_ptr<nn::Mlp> amp_;     // context+noise -> series amplitude
  std::unique_ptr<nn::Mlp> embed_d_; // discriminator-side context embedding
  std::unique_ptr<nn::Lstm> disc_;   // critic over [series step, cond]
};

}  // namespace spectra::baselines
