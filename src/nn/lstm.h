// Recurrent layers: LSTMCell/LSTM (batched, as used by the SpectraGAN
// residual time-series generator and time discriminator, §2.2.2–2.2.3)
// and ConvLSTMCell (for the Conv{3D+LSTM} baseline, §3.3).

#pragma once

#include <memory>
#include <vector>

#include "nn/layers.h"

namespace spectra::nn {

// Hidden/cell state pair threaded through recurrent steps.
struct LstmState {
  Var h;
  Var c;
};

// Standard LSTM cell (Hochreiter & Schmidhuber 1997) with fused gate
// projection: gates = x Wx + h Wh + b, split into i, f, g, o.
class LSTMCell : public Module {
 public:
  LSTMCell(long input_size, long hidden_size, Rng& rng);

  // Zero state for batch size B (constants; no gradient).
  LstmState initial_state(long batch) const;

  // One step: x is [B, input_size]; returns the new state.
  LstmState step(const Var& x, const LstmState& state) const;

  // Input projection x·Wx as one GEMM. `x` may batch several timesteps
  // as [T·B, input_size]; slice the result per step and feed it to
  // step_projected. Lstm::forward uses this to turn T small per-step
  // matmuls into a single [T·B, 4H] product.
  Var project_input(const Var& x) const;

  // One step from a precomputed input projection ([B, 4*hidden]). Runs
  // the fused gate kernel (ops.h lstm_fused_step): one autograd node
  // pair per step instead of the ~12-node op composition.
  LstmState step_projected(const Var& x_proj, const LstmState& state) const;

  long input_size() const { return input_size_; }
  long hidden_size() const { return hidden_size_; }

 private:
  long input_size_;
  long hidden_size_;
  Var weight_x_;  // [input, 4*hidden]
  Var weight_h_;  // [hidden, 4*hidden]
  Var bias_;      // [4*hidden] (forget-gate slice initialized to 1)
};

// Multi-step LSTM with a per-step linear head. Consumes a sequence of
// [B, input] vars and emits a sequence of [B, output] vars.
class Lstm : public Module {
 public:
  Lstm(long input_size, long hidden_size, long output_size, Rng& rng,
       Activation output_activation = Activation::kNone);

  // Run over `inputs` (each [B, input]); returns per-step outputs.
  std::vector<Var> forward(const std::vector<Var>& inputs) const;

  // Inference-only recurrence for clock-conditioned generation: row b's
  // input at step t is [row_input[b], step_input[t]], with row_input
  // [B, D], step_input [T, F] shared by every row and D + F the input
  // size. Returns [B, T, output], bitwise equal to forward() over those
  // inputs followed by stack0/transpose01 (DESIGN §6c). Builds no graph
  // and allocates nothing per step. Requires D + F <= gemm::kKC.
  Tensor infer(const Tensor& row_input, const Tensor& step_input) const;

  const LSTMCell& cell() const { return cell_; }
  const Linear& head() const { return head_; }

 private:
  LSTMCell cell_;
  Linear head_;
  Activation output_activation_;
};

// Convolutional LSTM cell (Shi et al. 2015): gates are convolutions over
// the channel-concatenated [x, h] feature map. States are [B, hidden, H, W].
class ConvLSTMCell : public Module {
 public:
  ConvLSTMCell(long input_channels, long hidden_channels, long kernel, Rng& rng);

  LstmState initial_state(long batch, long height, long width) const;

  // x is [B, input_channels, H, W].
  LstmState step(const Var& x, const LstmState& state) const;

  long hidden_channels() const { return hidden_channels_; }

 private:
  long input_channels_;
  long hidden_channels_;
  Conv2dLayer gates_;  // (input+hidden) -> 4*hidden channels
};

}  // namespace spectra::nn
