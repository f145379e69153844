#include "reference/lstm_reference.h"

#include <algorithm>

#include "nn/ops.h"
#include "util/error.h"

namespace spectra::reference {

namespace {

nn::LstmState zero_state(long batch, long hidden) {
  return {nn::Var::constant(nn::Tensor({batch, hidden})),
          nn::Var::constant(nn::Tensor({batch, hidden}))};
}

}  // namespace

nn::LstmState lstm_step_unfused(const nn::Var& x_proj, const nn::LstmState& state,
                                const nn::Var& weight_h, const nn::Var& bias) {
  const long H = weight_h.value().dim(0);
  SG_CHECK(x_proj.value().rank() == 2 && x_proj.value().dim(1) == 4 * H,
           "lstm_step_unfused: projected input must be [B, 4*hidden]");
  nn::Var gates = nn::add_rowvec(nn::add(x_proj, nn::matmul(state.h, weight_h)), bias);
  nn::Var i = nn::sigmoid(nn::slice_cols(gates, 0, H));
  nn::Var f = nn::sigmoid(nn::slice_cols(gates, H, H));
  nn::Var g = nn::vtanh(nn::slice_cols(gates, 2 * H, H));
  nn::Var o = nn::sigmoid(nn::slice_cols(gates, 3 * H, H));
  nn::Var c_next = nn::add(nn::mul(f, state.c), nn::mul(i, g));
  nn::Var h_next = nn::mul(o, nn::vtanh(c_next));
  return {h_next, c_next};
}

nn::Var lstm_generate_graph(const std::vector<nn::Var>& params, nn::Activation activation,
                            const nn::Var& cond, const nn::Tensor& clock) {
  SG_CHECK(params.size() == 5, "lstm_generate_graph: expects W_x, W_h, b, W_out, b_out");
  const long batch = cond.value().dim(0);
  const long steps = clock.dim(0);
  const long features = clock.dim(1);
  std::vector<nn::Var> inputs;
  for (long t = 0; t < steps; ++t) {
    nn::Tensor clock_rows({batch, features});
    const float* row = clock.data() + t * features;
    for (long b = 0; b < batch; ++b) {
      std::copy(row, row + features, clock_rows.data() + b * features);
    }
    inputs.push_back(nn::concat_axis({cond, nn::Var::constant(std::move(clock_rows))}, 1));
  }
  nn::Var all_steps = steps == 1 ? inputs[0] : nn::concat_axis(inputs, /*axis=*/0);
  nn::Var all_proj = nn::matmul(all_steps, params[0]);
  nn::LstmState state = zero_state(batch, params[1].value().dim(0));
  std::vector<nn::Var> outputs;
  for (long t = 0; t < steps; ++t) {
    state = lstm_step_unfused(nn::slice_axis(all_proj, /*axis=*/0, t * batch, batch), state,
                              params[1], params[2]);
    outputs.push_back(
        nn::apply_activation(nn::linear(state.h, params[3], params[4]), activation));
  }
  return nn::transpose01(nn::stack0(outputs));
}

nn::Var lstm_critique_graph(const std::vector<nn::Var>& params, const nn::Var& series,
                            const nn::Var& cond, long stride) {
  SG_CHECK(params.size() == 5, "lstm_critique_graph: expects W_x, W_h, b, W_out, b_out");
  SG_CHECK(series.value().rank() == 3 && stride >= 1,
           "lstm_critique_graph: expects a [B, T, S] series and a positive stride");
  const long batch = series.value().dim(0);
  const long width = series.value().dim(2);
  nn::LstmState state = zero_state(batch, params[1].value().dim(0));
  nn::Var logit_sum;
  long counted = 0;
  for (long t = 0; t < series.value().dim(1); t += stride) {
    nn::Var x_t = nn::reshape(nn::slice_axis(series, /*axis=*/1, t, 1), {batch, width});
    nn::Var x_proj = nn::matmul(nn::concat_axis({x_t, cond}, /*axis=*/1), params[0]);
    state = lstm_step_unfused(x_proj, state, params[1], params[2]);
    nn::Var logit_t = nn::linear(state.h, params[3], params[4]);
    logit_sum = logit_sum.defined() ? nn::add(logit_sum, logit_t) : logit_t;
    ++counted;
  }
  return nn::mul_scalar(logit_sum, 1.0f / static_cast<float>(counted));
}

}  // namespace spectra::reference
