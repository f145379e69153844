#include "nn/lstm.h"

#include <algorithm>

#include "nn/activations.h"
#include "nn/gemm.h"
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

Tensor Lstm::infer(const Tensor& row_input, const Tensor& step_input) const {
  SG_PROFILE_SCOPE("nn/lstm_forward");
  SG_CHECK(row_input.rank() == 2 && step_input.rank() == 2,
           "Lstm::infer expects [B, D] row inputs and [T, F] step inputs");
  const long batch = row_input.dim(0);
  const long d = row_input.dim(1);
  const long steps = step_input.dim(0);
  const long f = step_input.dim(1);
  SG_CHECK(batch > 0 && steps > 0, "Lstm::infer requires a positive batch and step count");
  SG_CHECK(d + f == cell_.input_size(), "Lstm::infer input widths must sum to the input size");
  // forward() projects every step with one [T·B, D+F] GEMM, which reduces
  // each element p-ascending from +0 only while D+F fits one k block.
  SG_CHECK(d + f <= gemm::kKC, "Lstm::infer requires input size <= gemm::kKC");
  const long hidden = cell_.hidden_size();
  const long gates = 4 * hidden;
  const long out = head_.out_features();
  const long hb = hidden * batch;
  if (obs::profile_enabled()) {
    // The gate math only, at lstm_step's nominal cost; the three GEMMs
    // account for themselves on nested nn/gemm nodes.
    const double bht = static_cast<double>(hb) * static_cast<double>(steps);
    obs::profile_add_work(40.0 * bht, 10.0 * bht * 4.0);
  }
  const std::vector<Var> cell_params = cell_.parameters();  // weight_x, weight_h, bias
  const std::vector<Var> head_params = head_.parameters();  // weight, bias
  const float* wx = cell_params[0].value().data();
  const float* wh = cell_params[1].value().data();
  const float* bias = cell_params[2].value().data();
  const float* w_step = wx + d * gates;  // rows D..D+F-1 of Wx

  // base = row_input · Wx[0:D]: the first D terms of every projected
  // element, summed in forward()'s p order.
  std::vector<float> base(static_cast<std::size_t>(batch * gates));
  gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, batch, gates, d, row_input.data(), d, wx, gates,
              base.data(), gates, /*accumulate=*/false);

  // State and gates are gate-major ([H, B], [4H, B]): each activation
  // runs once per step over a whole gate block. h_t of every row is
  // kept for the head as [B, T, H].
  const auto n_hb = static_cast<std::size_t>(hb);
  std::vector<float> x_buf(static_cast<std::size_t>(batch * gates));
  std::vector<float> pre_buf(static_cast<std::size_t>(batch * gates));
  std::vector<float> z_buf(4 * n_hb);
  std::vector<float> h_buf(n_hb, 0.0f);
  std::vector<float> c_buf(n_hb, 0.0f);
  std::vector<float> tanh_c_buf(n_hb);
  std::vector<float> hs_buf(n_hb * static_cast<std::size_t>(steps));
  float* x = x_buf.data();
  float* pre = pre_buf.data();
  float* zi = z_buf.data();  // blocks i | f | g | o
  float* zf = zi + hb;
  float* zg = zi + 2 * hb;
  float* zo = zi + 3 * hb;
  float* h = h_buf.data();
  float* c = c_buf.data();
  float* tanh_c = tanh_c_buf.data();
  float* hs = hs_buf.data();
  for (long t = 0; t < steps; ++t) {
    const float* clock = step_input.data() + t * f;
    // pre = h·Wh, reading the [H, B] state as the transposed A operand.
    gemm::sgemm(gemm::Trans::kTrans, gemm::Trans::kNo, batch, gates, hidden, h, batch, wh, gates,
                pre, gates, /*accumulate=*/false);
    // x_t continues base's reduction with the step's F terms, p-ascending
    // per element exactly as forward()'s projection GEMM does.
    std::copy(base.begin(), base.end(), x);
    for (long p = 0; p < f; ++p) {
      const float a = clock[p];
      const float* w_row = w_step + p * gates;
      for (long b = 0; b < batch; ++b) {
        float* x_row = x + b * gates;
        for (long j = 0; j < gates; ++j) x_row[j] += a * w_row[j];
      }
    }
    // z = (x_t + pre) + b, written gate-major.
    for (long b = 0; b < batch; ++b) {
      const float* x_row = x + b * gates;
      const float* pre_row = pre + b * gates;
      for (long j = 0; j < gates; ++j) zi[j * batch + b] = (x_row[j] + pre_row[j]) + bias[j];
    }
    act::sigmoid(zi, zi, 2 * n_hb);
    act::tanh(zg, zg, n_hb);
    act::sigmoid(zo, zo, n_hb);
    for (long k = 0; k < hb; ++k) c[k] = (zf[k] * c[k]) + (zi[k] * zg[k]);
    act::tanh(c, tanh_c, n_hb);
    for (long j = 0; j < hidden; ++j) {
      for (long b = 0; b < batch; ++b) {
        const long k = j * batch + b;
        h[k] = zo[k] * tanh_c[k];
        hs[(b * steps + t) * hidden + j] = h[k];
      }
    }
  }

  // The head over every (row, step) at once: row (b, t) of this GEMM is
  // forward()'s step-t head row b, then the same bias add and activation.
  const float* bias_out = head_params[1].value().data();
  Tensor y({batch, steps, out});
  gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, batch * steps, out, hidden, hs, hidden,
              head_params[0].value().data(), out, y.data(), out, /*accumulate=*/false);
  for (long r = 0; r < batch * steps; ++r) {
    float* row = y.data() + r * out;
    for (long j = 0; j < out; ++j) row[j] = row[j] + bias_out[j];
  }
  const auto n_out = static_cast<std::size_t>(y.numel());
  switch (output_activation_) {
    case Activation::kNone:
      break;
    case Activation::kSigmoid:
      act::sigmoid(y.data(), y.data(), n_out);
      break;
    case Activation::kTanh:
      act::tanh(y.data(), y.data(), n_out);
      break;
    case Activation::kRelu:
    case Activation::kLeakyRelu:
      return apply_activation(Var::constant(std::move(y)), output_activation_).value();
  }
  return y;
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
