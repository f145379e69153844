#include "baselines/conv3d_lstm.h"

#include <cmath>

#include <algorithm>
#include <limits>

#include "data/sampler.h"
#include "geo/strip_accumulator.h"
#include "nn/init.h"
#include "nn/optim.h"
#include "util/error.h"

namespace spectra::baselines {

using nn::Var;

Conv3dLstm::Conv3dLstm(const core::SpectraGanConfig& config)
    : config_(config), model_rng_(config.seed ^ 0x636c3364ULL) {
  config_.validate();
  // A ConvLSTM iteration costs ~5x a SpectraGAN iteration (full-rate
  // recurrent convolutions); scale the budget so wall-clock per fold is
  // comparable across models.
  config_.iterations = std::max<long>(60, config_.iterations * 3 / 10);
  encoder_g_ = std::make_unique<core::ContextEncoder>(config_, model_rng_);
  // Day clock only: the video-generation lineage this baseline stands in
  // captures short-term correlations (the paper's critique); weekly
  // structure must come from its recurrent state, where it struggles.
  gen_cell_ = std::make_unique<nn::ConvLstmCell>(
      config_.hidden_channels + config_.noise_channels + 2, conv_hidden_, 3, model_rng_);
  gen_head_ = std::make_unique<nn::Conv2dLayer>(conv_hidden_, 1, 1,
                                                nn::Conv2dSpec{.stride = 1, .padding = 0},
                                                model_rng_);
  encoder_r_ = std::make_unique<core::ContextEncoder>(config_, model_rng_);
  disc_cell_ = std::make_unique<nn::ConvLstmCell>(1 + config_.hidden_channels, conv_hidden_, 3,
                                                  model_rng_);
  disc_head_ = std::make_unique<nn::Linear>(
      conv_hidden_ * config_.patch.traffic_h * config_.patch.traffic_w, 1, model_rng_);
}

Var Conv3dLstm::rollout(const Var& hidden, const Var& noise, long steps) const {
  const long B = hidden.value().dim(0);
  const long Ht = config_.patch.traffic_h;
  const long Wt = config_.patch.traffic_w;
  Var base_input = nn::concat_axis({hidden, noise}, 1);
  nn::LstmState state = gen_cell_->initial_state(B, Ht, Wt);
  std::vector<Var> frames;
  frames.reserve(static_cast<std::size_t>(steps));
  const long spd = config_.steps_per_day;
  for (long t = 0; t < steps; ++t) {
    // Broadcast the day clock phase as two constant feature planes.
    const double day = 2.0 * M_PI * static_cast<double>(t % spd) / static_cast<double>(spd);
    const float phases[2] = {static_cast<float>(std::sin(day)), static_cast<float>(std::cos(day))};
    nn::Tensor clock({B, 2, Ht, Wt});
    for (long b = 0; b < B; ++b) {
      for (long c = 0; c < 2; ++c) {
        for (long p = 0; p < Ht * Wt; ++p) clock[(b * 2 + c) * Ht * Wt + p] = phases[c];
      }
    }
    Var input = nn::concat_axis({base_input, nn::Var::constant(std::move(clock))}, 1);
    state = gen_cell_->step(input, state);
    frames.push_back(nn::reshape(gen_head_->forward(state.h), {B, Ht * Wt}));
  }
  return nn::transpose01(nn::stack0(frames));  // [B, steps, P]
}

void Conv3dLstm::fit(const data::CountryDataset& dataset,
                     const std::vector<std::size_t>& train_cities, long train_steps, Rng& rng) {
  data::PatchSampler sampler(dataset, train_cities, config_.patch, 0, train_steps);
  const long Ht = config_.patch.traffic_h;
  const long Wt = config_.patch.traffic_w;
  const long pixels = Ht * Wt;

  std::vector<Var> g_params = encoder_g_->parameters();
  for (const nn::Module* m : {static_cast<const nn::Module*>(gen_cell_.get()),
                              static_cast<const nn::Module*>(gen_head_.get())}) {
    const std::vector<Var> sub = m->parameters();
    g_params.insert(g_params.end(), sub.begin(), sub.end());
  }
  std::vector<Var> d_params = encoder_r_->parameters();
  for (const nn::Module* m : {static_cast<const nn::Module*>(disc_cell_.get()),
                              static_cast<const nn::Module*>(disc_head_.get())}) {
    const std::vector<Var> sub = m->parameters();
    d_params.insert(d_params.end(), sub.begin(), sub.end());
  }
  nn::Adam opt_g(g_params, config_.lr_generator, 0.5f, 0.999f);
  nn::Adam opt_d(d_params, config_.lr_discriminator, 0.5f, 0.999f);

  // ConvLSTM critics are expensive; sample every disc_stride_-th frame.
  auto disc_logits = [&](const Var& traffic, const Var& hidden_r) {
    const long B = traffic.value().dim(0);
    const long steps = traffic.value().dim(1);
    nn::LstmState state = disc_cell_->initial_state(B, Ht, Wt);
    Var logit_sum;
    long counted = 0;
    for (long t = 0; t < steps; t += disc_stride_) {
      Var frame = nn::reshape(nn::slice_axis(traffic, 1, t, 1), {B, 1, Ht, Wt});
      state = disc_cell_->step(nn::concat_axis({frame, hidden_r}, 1), state);
      Var logit = disc_head_->forward(nn::reshape(state.h, {B, conv_hidden_ * pixels}));
      logit_sum = logit_sum.defined() ? nn::add(logit_sum, logit) : logit;
      ++counted;
    }
    return nn::mul_scalar(logit_sum, 1.0f / static_cast<float>(counted));
  };

  for (long it = 0; it < config_.iterations; ++it) {
    const data::PatchBatch batch = sampler.sample(config_.batch, rng);
    Var context = Var::constant(nn::Tensor(
        {batch.batch, batch.channels, batch.context_h, batch.context_w}, batch.context));
    Var real_traffic =
        Var::constant(nn::Tensor({batch.batch, batch.steps, pixels}, batch.traffic));
    Var noise = Var::constant(
        nn::init::gaussian({batch.batch, config_.noise_channels, Ht, Wt}, 1.0f, rng));

    Var fake_traffic = rollout(encoder_g_->forward(context), noise, batch.steps);

    {
      Var hidden_r = encoder_r_->forward(context);
      Var d_loss = nn::add(
          nn::bce_with_logits_const(disc_logits(real_traffic, hidden_r), 1.0f),
          nn::bce_with_logits_const(disc_logits(Var::constant(fake_traffic.value()), hidden_r),
                                    0.0f));
      opt_d.zero_grad();
      d_loss.backward();
      opt_d.clip_grad_norm(config_.grad_clip);
      opt_d.step();
    }
    {
      Var hidden_r = encoder_r_->forward(context);
      // Like DoppelGANger, the published model is purely adversarial; the
      // weak L1 anchor only stabilizes the scaled-down training.
      Var g_loss = nn::add(nn::bce_with_logits_const(disc_logits(fake_traffic, hidden_r), 1.0f),
                           nn::mul_scalar(nn::l1_loss(fake_traffic, real_traffic),
                                          0.1f * config_.lambda_l1));
      opt_g.zero_grad();
      g_loss.backward();
      opt_g.clip_grad_norm(config_.grad_clip);
      opt_g.step();
    }
  }
}

geo::CityTensor Conv3dLstm::generate(const data::City& target, long steps, Rng& rng) {
  const geo::PatchSpec& spec = config_.patch;
  const std::vector<geo::PatchWindow> windows =
      geo::enumerate_windows(target.height(), target.width(), spec);
  const long pixels = spec.traffic_h * spec.traffic_w;

  const nn::Tensor shared_noise = nn::init::gaussian(
      {1, config_.noise_channels, spec.traffic_h, spec.traffic_w}, 1.0f, rng);

  geo::CityTensorSink sink(steps, target.height(), target.width());
  geo::StripAccumulator accumulator(steps, target.height(), target.width(), sink);

  nn::InferenceGuard no_grad;
  constexpr std::size_t kChunk = 16;
  for (std::size_t begin = 0; begin < windows.size(); begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, windows.size());
    const long n = static_cast<long>(end - begin);

    nn::Tensor ctx_batch({n, config_.context_channels, spec.context_h, spec.context_w});
    for (long b = 0; b < n; ++b) {
      const std::vector<float> patch =
          geo::extract_context_patch(target.context, windows[begin + static_cast<std::size_t>(b)], spec);
      std::copy(patch.begin(), patch.end(), ctx_batch.data() + b * static_cast<long>(patch.size()));
    }
    nn::Tensor noise({n, config_.noise_channels, spec.traffic_h, spec.traffic_w});
    for (long b = 0; b < n; ++b) {
      std::copy(shared_noise.data(), shared_noise.data() + shared_noise.numel(),
                noise.data() + b * shared_noise.numel());
    }

    Var traffic = rollout(encoder_g_->forward(Var::constant(std::move(ctx_batch))),
                          Var::constant(std::move(noise)), steps);

    // Patch b's [T, P] block is contiguous in the batched output.
    for (long b = 0; b < n; ++b) {
      accumulator.add_patch(windows[begin + static_cast<std::size_t>(b)], spec,
                            traffic.value().data() + b * steps * pixels,
                            static_cast<std::size_t>(steps * pixels));
    }
  }
  accumulator.finish();
  geo::CityTensor city = sink.take();
  city.clamp(0.0, std::numeric_limits<double>::infinity());
  return city;
}

}  // namespace spectra::baselines
