#include "baselines/doppelganger.h"

#include "core/time_generator.h"

#include <limits>

#include "nn/init.h"
#include "nn/optim.h"
#include "util/error.h"

namespace spectra::baselines {

using nn::Var;

DoppelGanger::DoppelGanger(const core::SpectraGanConfig& config)
    : config_(config), model_rng_(config.seed ^ 0x64677232ULL) {
  config_.validate();
  const long C = config_.context_channels;
  embed_ = std::make_unique<nn::Mlp>(std::vector<long>{C + noise_dim_, config_.cond_dim, config_.cond_dim},
                                     nn::Activation::kLeakyRelu, nn::Activation::kTanh, model_rng_);
  gen_ = std::make_unique<nn::Lstm>(config_.cond_dim + core::kTimeFeatures,
                                    config_.lstm_hidden, 1, model_rng_,
                                    nn::Activation::kSigmoid);
  amp_ = std::make_unique<nn::Mlp>(std::vector<long>{C + noise_dim_, config_.cond_dim, 1},
                                   nn::Activation::kLeakyRelu, nn::Activation::kNone, model_rng_);
  embed_d_ = std::make_unique<nn::Mlp>(std::vector<long>{C, config_.cond_dim},
                                       nn::Activation::kNone, nn::Activation::kTanh, model_rng_);
  disc_ = std::make_unique<nn::Lstm>(1 + config_.cond_dim, config_.lstm_hidden, 1, model_rng_);
}

Var DoppelGanger::condition(const Var& pixel_context, const Var& noise) const {
  return embed_->forward(nn::concat_axis({pixel_context, noise}, 1));
}

Var DoppelGanger::series_forward(const Var& cond, long steps) const {
  const long batch = cond.value().dim(0);
  // [B, steps, 1] -> [B, steps].
  return nn::reshape(
      gen_->generate(cond, core::clock_table(steps, config_.steps_per_day, /*include_week=*/false)),
      {batch, steps});
}

Var DoppelGanger::amplitude_forward(const Var& pixel_context, const Var& amp_noise) const {
  return nn::softplus(amp_->forward(nn::concat_axis({pixel_context, amp_noise}, 1)));
}

namespace {
// Broadcast a [B,1] column over steps: amp * ones(1,T) -> [B,T].
Var tile_columns(const Var& column, long steps) {
  return nn::matmul(column, nn::Var::constant(nn::Tensor::full({1, steps}, 1.0f)));
}
}  // namespace

namespace {

// Collect (context vector, traffic series) for every land pixel of the
// training cities.
struct PixelPool {
  std::vector<std::vector<float>> contexts;  // [P][C]
  std::vector<std::vector<float>> series;    // [P][T]
};

PixelPool build_pool(const data::CountryDataset& dataset,
                     const std::vector<std::size_t>& train_cities, long train_steps) {
  PixelPool pool;
  for (std::size_t index : train_cities) {
    const data::City& city = dataset.cities.at(index);
    const long C = city.context.steps();
    for (long i = 0; i < city.height(); ++i) {
      for (long j = 0; j < city.width(); ++j) {
        std::vector<float> series(static_cast<std::size_t>(train_steps));
        double total = 0.0;
        for (long t = 0; t < train_steps; ++t) {
          const double v = city.traffic.at(t, i, j);
          series[static_cast<std::size_t>(t)] = static_cast<float>(v);
          total += v;
        }
        if (total <= 1e-9) continue;  // skip sea / dead pixels
        std::vector<float> ctx(static_cast<std::size_t>(C));
        for (long c = 0; c < C; ++c) ctx[static_cast<std::size_t>(c)] = static_cast<float>(city.context.at(c, i, j));
        pool.contexts.push_back(std::move(ctx));
        pool.series.push_back(std::move(series));
      }
    }
  }
  SG_CHECK(!pool.series.empty(), "DoppelGANger: no active pixels in training data");
  return pool;
}

}  // namespace

void DoppelGanger::fit(const data::CountryDataset& dataset,
                       const std::vector<std::size_t>& train_cities, long train_steps, Rng& rng) {
  const PixelPool pool = build_pool(dataset, train_cities, train_steps);
  const long C = config_.context_channels;
  const long B = config_.batch;

  std::vector<Var> g_params = embed_->parameters();
  for (const nn::Module* m : {static_cast<const nn::Module*>(gen_.get()),
                              static_cast<const nn::Module*>(amp_.get())}) {
    const std::vector<Var> sub = m->parameters();
    g_params.insert(g_params.end(), sub.begin(), sub.end());
  }
  std::vector<Var> d_params = embed_d_->parameters();
  const std::vector<Var> critic_params = disc_->parameters();
  d_params.insert(d_params.end(), critic_params.begin(), critic_params.end());
  nn::Adam opt_g(g_params, config_.lr_generator, 0.5f, 0.999f);
  nn::Adam opt_d(d_params, config_.lr_discriminator, 0.5f, 0.999f);

  // Mean of the per-step critic outputs over the [B, T] series, read as
  // [B, T, 1].
  auto disc_logits = [&](const Var& series, const Var& cond_d) {
    const long batch = series.value().dim(0);
    const long steps = series.value().dim(1);
    return disc_->critique(nn::reshape(series, {batch, steps, 1}), cond_d, /*stride=*/1);
  };

  for (long it = 0; it < config_.iterations; ++it) {
    nn::Tensor ctx({B, C});
    nn::Tensor real({B, train_steps});
    for (long b = 0; b < B; ++b) {
      const std::size_t pick = rng.uniform_index(pool.series.size());
      std::copy(pool.contexts[pick].begin(), pool.contexts[pick].end(), ctx.data() + b * C);
      std::copy(pool.series[pick].begin(), pool.series[pick].end(),
                real.data() + b * train_steps);
    }
    // Real series and their per-series peaks (targets for the normalized
    // branch).
    nn::Tensor real_norm = real;
    for (long b = 0; b < B; ++b) {
      float peak = 1e-6f;
      for (long t = 0; t < train_steps; ++t) peak = std::max(peak, real[b * train_steps + t]);
      for (long t = 0; t < train_steps; ++t) real_norm[b * train_steps + t] /= peak;
    }
    Var context = Var::constant(std::move(ctx));
    Var real_series = Var::constant(std::move(real));
    Var real_normalized = Var::constant(std::move(real_norm));
    Var noise = Var::constant(nn::init::gaussian({B, noise_dim_}, 1.0f, rng));
    Var amp_noise = Var::constant(nn::init::gaussian({B, noise_dim_}, 1.0f, rng));

    Var fake_normalized = series_forward(condition(context, noise), train_steps);
    Var amp = amplitude_forward(context, amp_noise);
    Var fake_series = nn::mul(tile_columns(amp, train_steps), fake_normalized);

    {
      Var cond_d = embed_d_->forward(context);
      Var d_loss = nn::add(
          nn::bce_with_logits_const(disc_logits(real_series, cond_d), 1.0f),
          nn::bce_with_logits_const(disc_logits(Var::constant(fake_series.value()), cond_d), 0.0f));
      opt_d.zero_grad();
      d_loss.backward();
      opt_d.clip_grad_norm(config_.grad_clip);
      opt_d.step();
    }
    {
      Var cond_d = embed_d_->forward(context);
      // The original DoppelGANger trains adversarially only; a small L1
      // anchor on the *normalized* series (shape only — the amplitude
      // branch stays purely adversarial, as its min/max generator does)
      // stabilizes the scaled-down model. It is deliberately an order of
      // magnitude weaker than SpectraGAN's explicit loss: Eq. 1's strong
      // explicit supervision is part of SpectraGAN's contribution, not of
      // this baseline.
      Var g_loss = nn::add(nn::bce_with_logits_const(disc_logits(fake_series, cond_d), 1.0f),
                           nn::mul_scalar(nn::l1_loss(fake_normalized, real_normalized),
                                          0.1f * config_.lambda_l1));
      opt_g.zero_grad();
      g_loss.backward();
      opt_g.clip_grad_norm(config_.grad_clip);
      opt_g.step();
    }
  }
}

geo::CityTensor DoppelGanger::generate(const data::City& target, long steps, Rng& rng) {
  const long C = config_.context_channels;
  const long H = target.height();
  const long W = target.width();
  const long P = H * W;

  nn::InferenceGuard no_grad;

  geo::CityTensor out(steps, H, W);
  constexpr long kChunk = 128;  // pixels per forward pass
  for (long begin = 0; begin < P; begin += kChunk) {
    const long n = std::min(kChunk, P - begin);
    nn::Tensor ctx({n, C});
    for (long b = 0; b < n; ++b) {
      const long p = begin + b;
      for (long c = 0; c < C; ++c) {
        ctx[b * C + c] = static_cast<float>(target.context.at(c, p / W, p % W));
      }
    }
    // Independent noise per pixel: the source of DoppelGANger's spatial
    // incoherence on this task.
    Var context = Var::constant(std::move(ctx));
    Var noise = Var::constant(nn::init::gaussian({n, noise_dim_}, 1.0f, rng));
    Var amp_noise = Var::constant(nn::init::gaussian({n, noise_dim_}, 1.0f, rng));
    Var normalized = series_forward(condition(context, noise), steps);
    Var amp = amplitude_forward(context, amp_noise);
    for (long b = 0; b < n; ++b) {
      const long p = begin + b;
      const float a = amp.value()[b];
      for (long t = 0; t < steps; ++t) {
        out.at(t, p / W, p % W) = std::max(0.0f, a * normalized.value()[b * steps + t]);
      }
    }
  }
  return out;
}

}  // namespace spectra::baselines
