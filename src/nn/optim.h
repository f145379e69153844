// The Adam optimizer over parameter Vars. Since Vars share their node,
// the optimizer and the model see the same storage; `step()` updates
// values in place from the gradients of the last backward().

#pragma once

#include <vector>

#include "nn/autograd.h"

namespace spectra::nn {

// Adam over a fixed parameter list.
class Adam {
 public:
  explicit Adam(std::vector<Var> params, float lr = 1e-3f, float beta1 = 0.9f,
                float beta2 = 0.999f, float eps = 1e-8f);
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  void zero_grad();
  void step();

  // Clip all gradients to the given L2 norm (no-op if already within).
  // Returns the pre-clip global norm (training telemetry reads it).
  double clip_grad_norm(float max_norm);

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

  // Full optimizer state for checkpoint/resume: bias-correction step
  // count plus first/second moment estimates, in parameter order.
  long step_count() const { return t_; }
  const std::vector<Tensor>& first_moments() const { return m_; }
  const std::vector<Tensor>& second_moments() const { return v_; }

  // Restore state captured by the accessors above. Moment shapes must
  // match this optimizer's parameters; throws spectra::Error otherwise.
  void restore_state(long step_count, std::vector<Tensor> m, std::vector<Tensor> v);

 private:
  std::vector<Var> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  long t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace spectra::nn
