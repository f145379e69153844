#include "core/trainer.h"

#include <algorithm>

#include "core/fourier_bridge.h"
#include "core/losses.h"
#include "nn/init.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/train_log.h"
#include "util/error.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace spectra::core {

using nn::Var;

SpectraGan::SpectraGan(SpectraGanConfig config, std::uint64_t seed)
    : config_(std::move(config)), model_rng_(seed) {
  config_.validate();
  encoder_g_ = std::make_unique<ContextEncoder>(config_, model_rng_);
  encoder_r_ = std::make_unique<ContextEncoder>(config_, model_rng_);
  if (config_.use_spectrum_generator) {
    spectrum_gen_ = std::make_unique<SpectrumGenerator>(config_, model_rng_);
    disc_s_ = std::make_unique<SpectrumDiscriminator>(config_, model_rng_);
  }
  if (config_.use_time_generator) {
    time_gen_ = std::make_unique<TimeGenerator>(config_, model_rng_);
    if (config_.extra_time_generator) {
      time_gen_extra_ = std::make_unique<TimeGenerator>(config_, model_rng_);
    }
  }
  disc_t_ = std::make_unique<TimeDiscriminator>(config_, model_rng_);
}

std::vector<Var> SpectraGan::generator_parameters() const {
  std::vector<Var> params = encoder_g_->parameters();
  auto append = [&params](const nn::Module* m) {
    if (m == nullptr) return;
    const std::vector<Var> sub = m->parameters();
    params.insert(params.end(), sub.begin(), sub.end());
  };
  append(spectrum_gen_.get());
  append(time_gen_.get());
  append(time_gen_extra_.get());
  return params;
}

std::vector<Var> SpectraGan::discriminator_parameters() const {
  std::vector<Var> params = encoder_r_->parameters();
  auto append = [&params](const nn::Module* m) {
    if (m == nullptr) return;
    const std::vector<Var> sub = m->parameters();
    params.insert(params.end(), sub.begin(), sub.end());
  };
  append(disc_s_.get());
  append(disc_t_.get());
  return params;
}

nn::Tensor SpectraGan::sample_noise(long batch, Rng& rng) const {
  return nn::init::gaussian(
      {batch, config_.noise_channels, config_.patch.traffic_h, config_.patch.traffic_w}, 1.0f, rng);
}

SpectraGan::GeneratorOutput SpectraGan::generator_forward(const Var& context,
                                                          const Var& spatial_noise, long steps,
                                                          long expand_k) const {
  const long batch = context.value().dim(0);
  const long pixels = config_.patch.traffic_h * config_.patch.traffic_w;
  Var hidden = encoder_g_->forward(context);

  GeneratorOutput out;
  if (spectrum_gen_) {
    Var spec_map = spectrum_gen_->forward(hidden, spatial_noise);  // [B, 2F, Ht, Wt]
    out.spectrum = nn::reshape(spec_map, {batch, 2 * config_.spectrum_bins, pixels});
    out.traffic = irfft_bridge(out.spectrum, config_.train_steps, expand_k);
  }
  if (time_gen_) {
    Var residual = time_gen_->forward(hidden, spatial_noise, steps);
    out.traffic = out.traffic.defined() ? nn::add(out.traffic, residual) : residual;
    if (time_gen_extra_) {
      out.traffic = nn::add(out.traffic, time_gen_extra_->forward(hidden, spatial_noise, steps));
    }
  }
  return out;
}

namespace {

// Copy checkpointed tensors back into live parameter storage.
void restore_params(const std::vector<nn::Tensor>& saved, std::vector<Var> params,
                    const char* which) {
  SG_CHECK(saved.size() == params.size(),
           std::string("checkpoint ") + which + " parameter count mismatch");
  for (std::size_t k = 0; k < params.size(); ++k) {
    SG_CHECK(saved[k].same_shape(params[k].value()),
             std::string("checkpoint ") + which + " parameter shape mismatch");
    params[k].value_mut() = saved[k];
  }
}

train::AdamSnapshot capture_adam(const nn::Adam& opt) {
  train::AdamSnapshot snap;
  snap.step_count = static_cast<std::uint64_t>(opt.step_count());
  snap.m = opt.first_moments();
  snap.v = opt.second_moments();
  return snap;
}

}  // namespace

TrainStats SpectraGan::train(const data::PatchSampler& sampler, Rng& rng) {
  return train(sampler, rng, train::CheckpointOptions::from_env());
}

TrainStats SpectraGan::train(const data::PatchSampler& sampler, Rng& rng,
                             const train::CheckpointOptions& ckpt) {
  SG_CHECK(sampler.train_steps() == config_.train_steps,
           "sampler window length must equal config.train_steps");
  SG_PROFILE_SCOPE("train/run");
  Stopwatch watch;

  obs::TrainLogSink train_log;  // $SPECTRA_TRAIN_LOG; disabled when unset
  static obs::Counter& iter_counter = obs::Registry::instance().counter("train.iterations");
  static obs::Counter& restore_counter = obs::Registry::instance().counter("checkpoint.restores");
  static obs::Histogram& iter_hist =
      obs::Registry::instance().histogram("train.iteration_seconds");

  nn::Adam opt_g(generator_parameters(), config_.lr_generator, 0.5f, 0.999f);
  nn::Adam opt_d(discriminator_parameters(), config_.lr_discriminator, 0.5f, 0.999f);

  TrainStats stats;
  long start_it = 0;
  if (!ckpt.dir.empty()) {
    if (std::optional<train::TrainingSnapshot> snap = train::load_latest(ckpt.dir)) {
      SG_PROFILE_SCOPE("checkpoint/restore");
      restore_params(snap->gen_params, generator_parameters(), "generator");
      restore_params(snap->disc_params, discriminator_parameters(), "discriminator");
      opt_g.restore_state(static_cast<long>(snap->opt_g.step_count), std::move(snap->opt_g.m),
                          std::move(snap->opt_g.v));
      opt_d.restore_state(static_cast<long>(snap->opt_d.step_count), std::move(snap->opt_d.m),
                          std::move(snap->opt_d.v));
      rng.set_state(snap->rng);
      stats.d_loss_history = std::move(snap->stats.d_loss);
      stats.g_adv_loss_history = std::move(snap->stats.g_adv_loss);
      stats.l1_loss_history = std::move(snap->stats.l1_loss);
      stats.grad_norm_d_history = std::move(snap->stats.grad_norm_d);
      stats.grad_norm_g_history = std::move(snap->stats.grad_norm_g);
      stats.iter_seconds_history = std::move(snap->stats.iter_seconds);
      stats.iterations = static_cast<long>(snap->iteration);
      stats.resumed_iteration = stats.iterations;
      if (!stats.d_loss_history.empty()) stats.final_d_loss = stats.d_loss_history.back();
      if (!stats.g_adv_loss_history.empty()) {
        stats.final_g_adv_loss = stats.g_adv_loss_history.back();
      }
      if (!stats.l1_loss_history.empty()) stats.final_l1_loss = stats.l1_loss_history.back();
      start_it = std::min(stats.iterations, config_.iterations);
      restore_counter.inc();
      SG_LOG_INFO << "resumed from checkpoint at iteration " << stats.iterations << " in "
                  << ckpt.dir;
    }
  }
  for (long it = start_it; it < config_.iterations; ++it) {
    Stopwatch iter_watch;
    double grad_norm_d = 0.0;
    double grad_norm_g = 0.0;

    // Masked-FFT target y^q for the spectrum branch (Eq. 1's L1 target).
    Var context, real_traffic, noise, masked_target;
    {
      SG_PROFILE_SCOPE("train/sample");
      const data::PatchBatch batch = sampler.sample(config_.batch, rng);
      context = Var::constant(context_tensor(batch));
      real_traffic = Var::constant(traffic_tensor(batch));
      noise = Var::constant(sample_noise(batch.batch, rng));
      if (spectrum_gen_) {
        masked_target = Var::constant(masked_spectrum_target(
            traffic_tensor(batch), config_.spectrum_bins, config_.mask_quantile));
      }
    }

    // Single generator forward reused by both optimization steps.
    GeneratorOutput fake;
    {
      SG_PROFILE_SCOPE("train/g_forward");
      fake = generator_forward(context, noise, config_.train_steps, /*expand_k=*/1);
    }

    // --- discriminator step (fakes detached via value copies) ---
    {
      SG_PROFILE_SCOPE("train/d_step");
      Var hidden_r = encoder_r_->forward(context);
      Var d_loss;
      auto accumulate = [&d_loss](Var term) {
        d_loss = d_loss.defined() ? nn::add(d_loss, term) : term;
      };
      if (disc_s_) {
        accumulate(nn::bce_with_logits_const(disc_s_->forward(masked_target, hidden_r), 1.0f));
        accumulate(nn::bce_with_logits_const(
            disc_s_->forward(Var::constant(fake.spectrum.value()), hidden_r), 0.0f));
      }
      accumulate(nn::bce_with_logits_const(disc_t_->forward(real_traffic, hidden_r), 1.0f));
      accumulate(nn::bce_with_logits_const(
          disc_t_->forward(Var::constant(fake.traffic.value()), hidden_r), 0.0f));

      opt_d.zero_grad();
      {
        SG_PROFILE_SCOPE("train/backward");
        d_loss.backward();
      }
      grad_norm_d = opt_d.clip_grad_norm(config_.grad_clip);
      opt_d.step();
      stats.final_d_loss = d_loss.value()[0];
    }

    // --- generator step ---
    {
      SG_PROFILE_SCOPE("train/g_step");
      Var hidden_r = encoder_r_->forward(context);
      Var g_adv;
      auto accumulate = [&g_adv](Var term) {
        g_adv = g_adv.defined() ? nn::add(g_adv, term) : term;
      };
      if (disc_s_) {
        accumulate(nn::bce_with_logits_const(disc_s_->forward(fake.spectrum, hidden_r), 1.0f));
      }
      accumulate(nn::bce_with_logits_const(disc_t_->forward(fake.traffic, hidden_r), 1.0f));

      Var l1 = nn::l1_loss(fake.traffic, real_traffic);
      if (disc_s_) l1 = nn::add(l1, nn::l1_loss(fake.spectrum, masked_target));

      Var g_loss = nn::add(g_adv, nn::mul_scalar(l1, config_.lambda_l1));

      opt_g.zero_grad();
      // The backward pass also deposits gradients into discriminator
      // parameters; they are discarded at the next opt_d.zero_grad().
      {
        SG_PROFILE_SCOPE("train/backward");
        g_loss.backward();
      }
      grad_norm_g = opt_g.clip_grad_norm(config_.grad_clip);
      opt_g.step();
      stats.final_g_adv_loss = g_adv.value()[0];
      stats.final_l1_loss = l1.value()[0];
    }

    ++stats.iterations;
    iter_counter.inc();
    const double iter_seconds = iter_watch.seconds();
    iter_hist.observe(iter_seconds);
    stats.d_loss_history.push_back(stats.final_d_loss);
    stats.g_adv_loss_history.push_back(stats.final_g_adv_loss);
    stats.l1_loss_history.push_back(stats.final_l1_loss);
    stats.grad_norm_d_history.push_back(grad_norm_d);
    stats.grad_norm_g_history.push_back(grad_norm_g);
    stats.iter_seconds_history.push_back(iter_seconds);
    if (train_log.enabled()) {
      train_log.write({it, stats.final_d_loss, stats.final_g_adv_loss, stats.final_l1_loss,
                       grad_norm_d, grad_norm_g, iter_seconds});
    }
    if ((it + 1) % 50 == 0) {
      SG_LOG_INFO << "iter " << (it + 1) << "/" << config_.iterations
                  << " d=" << stats.final_d_loss << " g_adv=" << stats.final_g_adv_loss
                  << " l1=" << stats.final_l1_loss;
    }
    if (ckpt.enabled() && (it + 1) % ckpt.every == 0) {
      train::TrainingSnapshot snap;
      snap.iteration = static_cast<std::uint64_t>(it + 1);
      for (const Var& p : generator_parameters()) snap.gen_params.push_back(p.value());
      for (const Var& p : discriminator_parameters()) snap.disc_params.push_back(p.value());
      snap.opt_g = capture_adam(opt_g);
      snap.opt_d = capture_adam(opt_d);
      snap.rng = rng.state();
      snap.stats = {stats.d_loss_history,      stats.g_adv_loss_history,
                    stats.l1_loss_history,     stats.grad_norm_d_history,
                    stats.grad_norm_g_history, stats.iter_seconds_history};
      train::write_checkpoint(ckpt.dir, snap, ckpt.keep_last);
    }
  }
  stats.seconds = watch.seconds();
  return stats;
}

void SpectraGan::save(const std::string& path) const {
  std::vector<Var> all = generator_parameters();
  const std::vector<Var> d = discriminator_parameters();
  all.insert(all.end(), d.begin(), d.end());
  nn::save_parameters(path, all);
}

void SpectraGan::load(const std::string& path) {
  std::vector<Var> all = generator_parameters();
  const std::vector<Var> d = discriminator_parameters();
  all.insert(all.end(), d.begin(), d.end());
  nn::load_parameters(path, all);
}

}  // namespace spectra::core
