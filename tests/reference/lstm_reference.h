// The pre-fusion LSTM step: LSTMCell::step_projected spelled as the
// op-by-op composition (add/add_rowvec/slice_cols/sigmoid/vtanh/mul) it
// fuses. nn::lstm_fused_step must reproduce its values and gradients bit
// for bit (layers_test), and bench_kernels times it as the lstm rows'
// baseline.

#pragma once

#include "nn/lstm.h"

namespace spectra::reference {

// One step from a precomputed input projection x_proj [B, 4H] with the
// cell's recurrent weight [H, 4H] and bias [4H] (LSTMCell::parameters()
// order: weight_x, weight_h, bias).
nn::LstmState lstm_step_unfused(const nn::Var& x_proj, const nn::LstmState& state,
                                const nn::Var& weight_h, const nn::Var& bias);

}  // namespace spectra::reference
