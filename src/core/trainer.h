// The SpectraGAN model: generator-side encoder E^G, spectrum generator
// G^s, residual time generator G^t, discriminator-side encoder E^R and
// critics R^s / R^t, with the adversarial + explicit-L1 training loop of
// Eq. 1 and whole-city generation (§2.2.4).

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/discriminators.h"
#include "core/encoder.h"
#include "core/spectrum_generator.h"
#include "core/time_generator.h"
#include "data/sampler.h"
#include "geo/city_tensor.h"
#include "geo/strip_accumulator.h"
#include "nn/optim.h"
#include "train/checkpoint.h"

namespace spectra::core {

struct TrainStats {
  long iterations = 0;
  long resumed_iteration = 0;  // 0 = fresh start; N = resumed after N completed iterations
  double final_d_loss = 0.0;
  double final_g_adv_loss = 0.0;
  double final_l1_loss = 0.0;
  double seconds = 0.0;

  // Per-iteration running histories (one entry per iteration run); the
  // final_* fields above are the last entries, kept for convenience.
  std::vector<double> d_loss_history;
  std::vector<double> g_adv_loss_history;
  std::vector<double> l1_loss_history;
  std::vector<double> grad_norm_d_history;  // pre-clip discriminator grad norm
  std::vector<double> grad_norm_g_history;  // pre-clip generator grad norm
  std::vector<double> iter_seconds_history;
};

class SpectraGan {
 public:
  SpectraGan(SpectraGanConfig config, std::uint64_t seed);

  // Run the full adversarial training loop on patches from `sampler`.
  // Checkpointing defaults to the SPECTRA_CKPT_* env knobs: when
  // SPECTRA_CKPT_DIR is set, the run first resumes from the newest valid
  // snapshot in that directory (corrupt ones are skipped) and then
  // snapshots the full training state — parameters, Adam moments and
  // step counts, the `rng` stream, iteration counter, and loss histories
  // — every SPECTRA_CKPT_EVERY iterations. A killed-and-resumed run
  // reproduces the uninterrupted loss trajectory and final parameters
  // bitwise (tests/checkpoint_test.cpp; CI checkpoint-gauntlet).
  TrainStats train(const data::PatchSampler& sampler, Rng& rng);
  TrainStats train(const data::PatchSampler& sampler, Rng& rng,
                   const train::CheckpointOptions& ckpt);

  // Generate a whole-city tensor of `steps` time steps for the given
  // context (steps must be a multiple of config.train_steps; longer
  // horizons use the k-multiple frequency expansion). Noise is shared
  // across patches (§2.2.4). Non-negative output. Thin wrapper over
  // generate_city_streamed with an in-memory CityTensorSink.
  geo::CityTensor generate_city(const geo::ContextTensor& context, long steps, Rng& rng) const;

  // Streaming whole-city generation (DESIGN §6f): validate, enumerate
  // windows, draw the shared noise, run chunked generator forwards
  // (groups of parallel_threads() chunks fan out on the pool), then sew
  // every patch serially in window order. Rows are finalized strip by
  // strip through `sink` the moment their last covering window lands, so
  // resident memory is O(traffic_h x steps x W) regardless of grid
  // height. Emitted rows are clamped non-negative, in strictly increasing
  // row order, t-major ([t * W + col]). Bitwise identical for any thread
  // count.
  void generate_city_streamed(
      const geo::ContextTensor& context, long steps, Rng& rng, geo::RowSink& sink,
      geo::OverlapAggregation aggregation = geo::OverlapAggregation::kMean) const;

  const SpectraGanConfig& config() const { return config_; }

  std::vector<nn::Var> generator_parameters() const;
  std::vector<nn::Var> discriminator_parameters() const;

  // Parameter (de)serialization for pre-trained-model workflows.
  void save(const std::string& path) const;
  void load(const std::string& path);

 private:
  // One generator forward pass on a batch. Outputs are null Vars when the
  // corresponding component is disabled by the variant switches.
  struct GeneratorOutput {
    nn::Var spectrum;  // [B, 2*Fgen, P]
    nn::Var traffic;   // [B, T, P]
  };
  GeneratorOutput generator_forward(const nn::Var& context, const nn::Var& spatial_noise,
                                    long steps, long expand_k) const;

  nn::Tensor sample_noise(long batch, Rng& rng) const;

  SpectraGanConfig config_;
  Rng model_rng_;

  // Generator side.
  std::unique_ptr<ContextEncoder> encoder_g_;
  std::unique_ptr<SpectrumGenerator> spectrum_gen_;
  std::unique_ptr<TimeGenerator> time_gen_;
  std::unique_ptr<TimeGenerator> time_gen_extra_;  // Time-only+ ablation

  // Discriminator side.
  std::unique_ptr<ContextEncoder> encoder_r_;
  std::unique_ptr<SpectrumDiscriminator> disc_s_;
  std::unique_ptr<TimeDiscriminator> disc_t_;
};

}  // namespace spectra::core
