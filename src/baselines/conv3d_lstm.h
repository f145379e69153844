// Conv{3D+LSTM} baseline (§3.3): the representative spatiotemporal
// generative architecture — the SpectraGAN context encoder feeding a
// convolutional-LSTM frame generator, adversarially trained against a
// ConvLSTM discriminator. A "black-box" design agnostic to the traffic
// structure, which is exactly the property the paper's ablation argues
// against (intermediate SSIM, suboptimal AC-L1).

#pragma once

#include <memory>

#include "baselines/model_api.h"
#include "core/encoder.h"
#include "nn/lstm.h"

namespace spectra::baselines {

class Conv3dLstm : public TrafficGenerator {
 public:
  explicit Conv3dLstm(const core::SpectraGanConfig& config);

  std::string name() const override { return "Conv{3D+LSTM}"; }

  void fit(const data::CountryDataset& dataset, const std::vector<std::size_t>& train_cities,
           long train_steps, Rng& rng) override;

  geo::CityTensor generate(const data::City& target, long steps, Rng& rng) override;

 private:
  // ConvLSTM rollout: hidden context map + noise -> [B, steps, P].
  nn::Var rollout(const nn::Var& hidden, const nn::Var& noise, long steps) const;

  core::SpectraGanConfig config_;
  Rng model_rng_;
  long conv_hidden_ = 4;     // ConvLSTM hidden channels
  long disc_stride_ = 4;     // discriminator samples every k-th frame

  std::unique_ptr<core::ContextEncoder> encoder_g_;
  std::unique_ptr<nn::ConvLstmCell> gen_cell_;
  std::unique_ptr<nn::Conv2dLayer> gen_head_;  // hidden -> 1 channel frame
  std::unique_ptr<core::ContextEncoder> encoder_r_;
  std::unique_ptr<nn::ConvLstmCell> disc_cell_;
  std::unique_ptr<nn::Linear> disc_head_;
};

}  // namespace spectra::baselines
