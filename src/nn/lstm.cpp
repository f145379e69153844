#include "nn/lstm.h"

#include "nn/init.h"
#include "obs/profile.h"
#include "util/error.h"

namespace spectra::nn {

LSTMCell::LSTMCell(long input_size, long hidden_size, Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  SG_CHECK(input_size > 0 && hidden_size > 0, "LSTMCell requires positive sizes");
  weight_x_ = register_parameter(
      init::xavier_uniform({input_size, 4 * hidden_size}, input_size, hidden_size, rng));
  weight_h_ = register_parameter(
      init::xavier_uniform({hidden_size, 4 * hidden_size}, hidden_size, hidden_size, rng));
  Tensor bias = init::zeros({4 * hidden_size});
  // Forget-gate bias at 1.0: standard trick so early training does not
  // immediately flush the cell state.
  for (long i = hidden_size; i < 2 * hidden_size; ++i) bias[i] = 1.0f;
  bias_ = register_parameter(std::move(bias));
}

LstmState LSTMCell::initial_state(long batch) const {
  SG_CHECK(batch > 0, "initial_state requires positive batch");
  return {Var::constant(Tensor({batch, hidden_size_})), Var::constant(Tensor({batch, hidden_size_}))};
}

Var LSTMCell::project_input(const Var& x) const {
  SG_CHECK(x.value().rank() == 2 && x.value().dim(1) == input_size_,
           "LSTMCell input must be [*, input_size]");
  return matmul(x, weight_x_);
}

LstmState LSTMCell::step(const Var& x, const LstmState& state) const {
  return step_projected(project_input(x), state);
}

LstmState LSTMCell::step_projected(const Var& x_proj, const LstmState& state) const {
  SG_CHECK(x_proj.value().rank() == 2 && x_proj.value().dim(1) == 4 * hidden_size_,
           "LSTMCell projected input must be [B, 4*hidden]");
  SG_PROFILE_SCOPE("nn/lstm_step");
  if (obs::profile_enabled()) {
    // Elementwise gate cost only (~40 nominal flops per hidden element:
    // gate sums, three sigmoids, two tanhs, cell/output blends); the
    // recurrent GEMM accounts for itself on the nested nn/gemm node.
    const double bh = static_cast<double>(x_proj.value().dim(0)) *
                      static_cast<double>(hidden_size_);
    obs::profile_add_work(40.0 * bh, 10.0 * bh * 4.0);
  }
  // Single fused gate kernel (two autograd nodes) instead of the ~12-node
  // unfused composition; bitwise-identical forward and backward
  // (asserted by layers_test against tests/reference/lstm_reference).
  auto [h_next, c_next] = lstm_fused_step(x_proj, state.h, state.c, weight_h_, bias_);
  return {h_next, c_next};
}

Lstm::Lstm(long input_size, long hidden_size, long output_size, Rng& rng,
           Activation output_activation)
    : cell_(input_size, hidden_size, rng),
      head_(hidden_size, output_size, rng),
      output_activation_(output_activation) {
  register_child(cell_);
  register_child(head_);
}

std::vector<Var> Lstm::forward(const std::vector<Var>& inputs) const {
  SG_PROFILE_SCOPE("nn/lstm_forward");
  SG_CHECK(!inputs.empty(), "Lstm::forward requires at least one step");
  const long batch = inputs[0].value().dim(0);
  // Batch the input projection of the whole sequence into one [T·B, 4H]
  // GEMM instead of T per-step matmuls; per-step slices keep autograd
  // connectivity (concat/slice backward route the gradients back to each
  // step's input).
  Var all_steps = inputs.size() == 1 ? inputs[0] : concat_axis(inputs, /*axis=*/0);
  Var all_proj = cell_.project_input(all_steps);
  LstmState state = cell_.initial_state(batch);
  std::vector<Var> outputs;
  outputs.reserve(inputs.size());
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    SG_CHECK(inputs[t].value().dim(0) == batch, "Lstm::forward steps must share a batch size");
    Var x_proj = slice_axis(all_proj, /*axis=*/0, static_cast<long>(t) * batch, batch);
    state = cell_.step_projected(x_proj, state);
    outputs.push_back(apply_activation(head_.forward(state.h), output_activation_));
  }
  return outputs;
}

std::vector<Var> Lstm::forward_repeat(const Var& input, long steps) const {
  SG_PROFILE_SCOPE("nn/lstm_forward");
  SG_CHECK(steps > 0, "forward_repeat requires steps > 0");
  // The input is static across steps, so one projection serves all of
  // them.
  Var x_proj = cell_.project_input(input);
  LstmState state = cell_.initial_state(input.value().dim(0));
  std::vector<Var> outputs;
  outputs.reserve(static_cast<std::size_t>(steps));
  for (long t = 0; t < steps; ++t) {
    state = cell_.step_projected(x_proj, state);
    outputs.push_back(apply_activation(head_.forward(state.h), output_activation_));
  }
  return outputs;
}

ConvLSTMCell::ConvLSTMCell(long input_channels, long hidden_channels, long kernel, Rng& rng)
    : input_channels_(input_channels),
      hidden_channels_(hidden_channels),
      gates_(input_channels + hidden_channels, 4 * hidden_channels, kernel,
             Conv2dSpec{.stride = 1, .padding = (kernel - 1) / 2}, rng) {
  SG_CHECK(kernel % 2 == 1, "ConvLSTMCell kernel must be odd to preserve extents");
  register_child(gates_);
}

LstmState ConvLSTMCell::initial_state(long batch, long height, long width) const {
  Tensor zero({batch, hidden_channels_, height, width});
  return {Var::constant(zero), Var::constant(std::move(zero))};
}

LstmState ConvLSTMCell::step(const Var& x, const LstmState& state) const {
  SG_CHECK(x.value().rank() == 4 && x.value().dim(1) == input_channels_,
           "ConvLSTMCell input must be [B, input_channels, H, W]");
  Var stacked = concat_axis({x, state.h}, /*axis=*/1);
  Var gates = gates_.forward(stacked);
  const long H = hidden_channels_;
  Var i = sigmoid(slice_axis(gates, 1, 0, H));
  Var f = sigmoid(slice_axis(gates, 1, H, H));
  Var g = vtanh(slice_axis(gates, 1, 2 * H, H));
  Var o = sigmoid(slice_axis(gates, 1, 3 * H, H));
  Var c_next = add(mul(f, state.c), mul(i, g));
  Var h_next = mul(o, vtanh(c_next));
  return {h_next, c_next};
}

}  // namespace spectra::nn
