// The LSTM as a per-step autograd graph: the op-by-op gate composition
// (add/add_rowvec/slice_cols/sigmoid/vtanh/mul) and the two sequence
// graphs built on it. nn::Lstm's sequence op must reproduce their values
// and every gradient bit for bit (layers_test), and bench_kernels times
// them as the lstm rows' baseline.

#pragma once

#include <vector>

#include "nn/layers.h"
#include "nn/lstm.h"

namespace spectra::reference {

// One step from a precomputed input projection x_proj [B, 4H] with the
// recurrent weight [H, 4H] and bias [4H].
nn::LstmState lstm_step_unfused(const nn::Var& x_proj, const nn::LstmState& state,
                                const nn::Var& weight_h, const nn::Var& bias);

// Generation form: row b's input at step t is [cond[b], clock[t]], all
// T·B input rows projected by one matmul and sliced per step, then the
// unfused step and the linear head (plus `activation`) per step,
// stacked to [B, T, out]. `params` is nn::Lstm::parameters(): W_x, W_h,
// b, W_out, b_out.
nn::Var lstm_generate_graph(const std::vector<nn::Var>& params, nn::Activation activation,
                            const nn::Var& cond, const nn::Tensor& clock);

// Critic form: row b's input at step k is [series[b, k·stride, :],
// cond[b]], projected per step; returns the per-step head outputs summed
// t-ascending and scaled by 1/steps, [B, out].
nn::Var lstm_critique_graph(const std::vector<nn::Var>& params, const nn::Var& series,
                            const nn::Var& cond, long stride);

}  // namespace spectra::reference
