#include "nn/optim.h"

#include <cmath>

#include "util/error.h"

namespace spectra::nn {

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2, float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    SG_CHECK(p.defined() && p.requires_grad(), "optimizer params must be trainable leaves");
    m_.emplace_back(p.value().shape());
    v_.emplace_back(p.value().shape());
  }
}

void Adam::zero_grad() {
  for (Var& p : params_) p.zero_grad();
}

double Adam::clip_grad_norm(float max_norm) {
  SG_CHECK(max_norm > 0.0f, "clip_grad_norm requires max_norm > 0");
  double total_sq = 0.0;
  for (Var& p : params_) {
    const Tensor& g = p.grad_storage();
    const long n = g.numel();
    for (long i = 0; i < n; ++i) total_sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
  }
  const double norm = std::sqrt(total_sq);
  if (norm <= static_cast<double>(max_norm)) return norm;
  const float scale = static_cast<float>(static_cast<double>(max_norm) / (norm + 1e-12));
  for (Var& p : params_) p.grad_storage().scale_(scale);
  return norm;
}

void Adam::restore_state(long step_count, std::vector<Tensor> m, std::vector<Tensor> v) {
  SG_CHECK(step_count >= 0, "Adam step count must be non-negative");
  SG_CHECK(m.size() == params_.size() && v.size() == params_.size(),
           "Adam moment count mismatch: got " + std::to_string(m.size()) + "/" +
               std::to_string(v.size()) + ", optimizer has " + std::to_string(params_.size()) +
               " params");
  for (std::size_t k = 0; k < params_.size(); ++k) {
    SG_CHECK(m[k].same_shape(params_[k].value()) && v[k].same_shape(params_[k].value()),
             "Adam moment shape mismatch at parameter " + std::to_string(k));
  }
  t_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::step() {
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Tensor& w = params_[k].value_mut();
    const Tensor& g = params_[k].grad_storage();
    Tensor& m = m_[k];
    Tensor& v = v_[k];
    const long n = w.numel();
    for (long i = 0; i < n; ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
      const float m_hat = m[i] / bias1;
      const float v_hat = v[i] / bias2;
      w[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

}  // namespace spectra::nn
