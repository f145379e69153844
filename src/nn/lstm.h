// Recurrent layers: Lstm, the sequence op of the SpectraGAN residual
// time-series generator and time critic (§2.2.2–2.2.3) and of the
// DoppelGANger baseline, and ConvLstmCell (for the Conv{3D+LSTM}
// baseline, §3.3).

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

// Standard LSTM (Hochreiter & Schmidhuber 1997) with a per-step linear
// head: gates = x W_x + h W_h + b, split into i, f, g, o, and y = h W_out
// + b_out. A whole sequence is one autograd op: the forward runs the
// recurrence off the graph, and the backward is BPTT in one closure that
// replays the per-step graph's accumulation order, so values and
// gradients are bitwise those of the op-by-op composition
// (tests/reference/lstm_reference, DESIGN §6c). Under InferenceGuard the
// op saves nothing and allocates nothing per step.
class Lstm : public Module {
 public:
  // The head's activation is kNone or kSigmoid.
  Lstm(long input_size, long hidden_size, long output_size, Rng& rng,
       Activation output_activation = Activation::kNone);

  // Generation form: row b's input at step t is [cond[b], clock[t]],
  // with cond [B, D] and the clock table [T, F] shared by every row;
  // D + F is the input size and at most gemm::kKC. Returns the head
  // outputs [B, T, out].
  Var generate(const Var& cond, const Tensor& clock) const;

  // Critic form: row b's input at step k is [series[b, k·stride, :],
  // cond[b]], with series [B, T, S], cond [B, D], S + D the input size
  // and stride >= 1. Returns the mean of the ceil(T / stride) per-step
  // head outputs, [B, out]: summed step-ascending, then scaled by
  // 1/steps.
  Var critique(const Var& series, const Var& cond, long stride) const;

 private:
  long input_size_;
  long hidden_size_;
  long output_size_;
  Activation output_activation_;
  // Registered W_x, W_h, b, W_out, b_out: the order fixes the RNG draws
  // and the serialized parameter layout.
  Var weight_x_;    // [input, 4*hidden]
  Var weight_h_;    // [hidden, 4*hidden]
  Var bias_;        // [4*hidden] (forget-gate slice initialized to 1)
  Var weight_out_;  // [hidden, output]
  Var bias_out_;    // [output]
};

// Convolutional LSTM cell (Shi et al. 2015): gates are convolutions over
// the channel-concatenated [x, h] feature map. States are [B, hidden, H, W].
class ConvLstmCell : public Module {
 public:
  ConvLstmCell(long input_channels, long hidden_channels, long kernel, Rng& rng);

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
