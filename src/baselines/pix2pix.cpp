#include "baselines/pix2pix.h"

#include <limits>

#include "data/sampler.h"
#include "geo/strip_accumulator.h"
#include "nn/init.h"
#include "util/error.h"
#include "util/log.h"

namespace spectra::baselines {

using nn::Var;

Pix2Pix::Pix2Pix(const core::SpectraGanConfig& config) : config_(config), model_rng_(config.seed ^ 0x70697832ULL) {
  config_.validate();
  encoder_g_ = std::make_unique<core::ContextEncoder>(config_, model_rng_);
  head1_ = std::make_unique<nn::Conv2dLayer>(
      config_.hidden_channels + config_.noise_channels, config_.spectrum_mid_channels, 3,
      nn::Conv2dSpec{.stride = 1, .padding = 1}, model_rng_);
  head2_ = std::make_unique<nn::Conv2dLayer>(config_.spectrum_mid_channels, 1, 3,
                                             nn::Conv2dSpec{.stride = 1, .padding = 1}, model_rng_);
  encoder_r_ = std::make_unique<core::ContextEncoder>(config_, model_rng_);
  const long pixels = config_.patch.traffic_h * config_.patch.traffic_w;
  disc_ = std::make_unique<nn::Mlp>(
      std::vector<long>{pixels + config_.hidden_channels * pixels, config_.disc_mlp_hidden, 1},
      nn::Activation::kLeakyRelu, nn::Activation::kNone, model_rng_);
}

Var Pix2Pix::frame_forward(const Var& hidden, const Var& noise) const {
  Var mid = nn::leaky_relu(head1_->forward(nn::concat_axis({hidden, noise}, 1)));
  return head2_->forward(mid);  // linear; traffic clamped at generation
}

void Pix2Pix::fit(const data::CountryDataset& dataset, const std::vector<std::size_t>& train_cities,
                  long train_steps, Rng& rng) {
  data::PatchSampler sampler(dataset, train_cities, config_.patch, 0, train_steps);
  const long pixels = config_.patch.traffic_h * config_.patch.traffic_w;

  std::vector<Var> g_params = encoder_g_->parameters();
  for (const nn::Module* m : {static_cast<const nn::Module*>(head1_.get()),
                              static_cast<const nn::Module*>(head2_.get())}) {
    const std::vector<Var> sub = m->parameters();
    g_params.insert(g_params.end(), sub.begin(), sub.end());
  }
  std::vector<Var> d_params = encoder_r_->parameters();
  {
    const std::vector<Var> sub = disc_->parameters();
    d_params.insert(d_params.end(), sub.begin(), sub.end());
  }
  nn::Adam opt_g(g_params, config_.lr_generator, 0.5f, 0.999f);
  nn::Adam opt_d(d_params, config_.lr_discriminator, 0.5f, 0.999f);

  for (long it = 0; it < config_.iterations; ++it) {
    const data::PatchBatch batch = sampler.sample(config_.batch, rng);
    Var context = Var::constant(nn::Tensor(
        {batch.batch, batch.channels, batch.context_h, batch.context_w}, batch.context));

    // One random frame per sample from its [T, Ht, Wt] traffic patch.
    nn::Tensor frames({batch.batch, 1, batch.traffic_h, batch.traffic_w});
    for (long b = 0; b < batch.batch; ++b) {
      const long t = static_cast<long>(rng.uniform_index(static_cast<std::size_t>(batch.steps)));
      for (long p = 0; p < pixels; ++p) {
        frames[b * pixels + p] = batch.traffic[static_cast<std::size_t>((b * batch.steps + t) * pixels + p)];
      }
    }
    Var real_frame = Var::constant(std::move(frames));
    Var noise = Var::constant(nn::init::gaussian(
        {batch.batch, config_.noise_channels, batch.traffic_h, batch.traffic_w}, 1.0f, rng));

    Var fake_frame = frame_forward(encoder_g_->forward(context), noise);

    auto disc_logits = [&](const Var& frame, const Var& hidden_r) {
      Var flat_frame = nn::reshape(frame, {batch.batch, pixels});
      Var flat_hidden =
          nn::reshape(hidden_r, {batch.batch, config_.hidden_channels * pixels});
      return disc_->forward(nn::concat_axis({flat_frame, flat_hidden}, 1));
    };

    {
      Var hidden_r = encoder_r_->forward(context);
      Var d_loss = nn::add(
          nn::bce_with_logits_const(disc_logits(real_frame, hidden_r), 1.0f),
          nn::bce_with_logits_const(disc_logits(Var::constant(fake_frame.value()), hidden_r), 0.0f));
      opt_d.zero_grad();
      d_loss.backward();
      opt_d.clip_grad_norm(config_.grad_clip);
      opt_d.step();
    }
    {
      Var hidden_r = encoder_r_->forward(context);
      Var g_loss = nn::add(nn::bce_with_logits_const(disc_logits(fake_frame, hidden_r), 1.0f),
                           nn::mul_scalar(nn::l1_loss(fake_frame, real_frame),
                                          10.0f * config_.lambda_l1));
      opt_g.zero_grad();
      g_loss.backward();
      opt_g.clip_grad_norm(config_.grad_clip);
      opt_g.step();
    }
  }
}

geo::CityTensor Pix2Pix::generate(const data::City& target, long steps, Rng& rng) {
  const geo::PatchSpec& spec = config_.patch;
  const std::vector<geo::PatchWindow> windows =
      geo::enumerate_windows(target.height(), target.width(), spec);
  const long n = static_cast<long>(windows.size());
  const long pixels = spec.traffic_h * spec.traffic_w;

  nn::InferenceGuard no_grad;

  // Context hidden states are time-invariant: encode all windows once.
  nn::Tensor ctx_batch({n, config_.context_channels, spec.context_h, spec.context_w});
  for (long b = 0; b < n; ++b) {
    const std::vector<float> patch =
        geo::extract_context_patch(target.context, windows[static_cast<std::size_t>(b)], spec);
    std::copy(patch.begin(), patch.end(), ctx_batch.data() + b * static_cast<long>(patch.size()));
  }
  Var hidden = encoder_g_->forward(Var::constant(std::move(ctx_batch)));

  std::vector<std::vector<float>> window_series(
      static_cast<std::size_t>(n), std::vector<float>(static_cast<std::size_t>(steps * pixels)));

  for (long t = 0; t < steps; ++t) {
    // Fresh noise each frame, shared across windows (as in the SpectraGAN
    // generation rule, so spatial sewing stays coherent within a frame).
    nn::Tensor noise_one = nn::init::gaussian(
        {1, config_.noise_channels, spec.traffic_h, spec.traffic_w}, 1.0f, rng);
    nn::Tensor noise({n, config_.noise_channels, spec.traffic_h, spec.traffic_w});
    for (long b = 0; b < n; ++b) {
      std::copy(noise_one.data(), noise_one.data() + noise_one.numel(),
                noise.data() + b * noise_one.numel());
    }
    const Var frame = frame_forward(hidden, Var::constant(std::move(noise)));
    for (long b = 0; b < n; ++b) {
      for (long p = 0; p < pixels; ++p) {
        window_series[static_cast<std::size_t>(b)][static_cast<std::size_t>(t * pixels + p)] =
            frame.value()[b * pixels + p];
      }
    }
  }
  geo::CityTensorSink sink(steps, target.height(), target.width());
  geo::StripAccumulator accumulator(steps, target.height(), target.width(), sink);
  for (long b = 0; b < n; ++b) {
    accumulator.add_patch(windows[static_cast<std::size_t>(b)], spec,
                          window_series[static_cast<std::size_t>(b)]);
  }
  accumulator.finish();
  geo::CityTensor city = sink.take();
  city.clamp(0.0, std::numeric_limits<double>::infinity());
  return city;
}

}  // namespace spectra::baselines
