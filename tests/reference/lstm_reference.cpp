#include "reference/lstm_reference.h"

#include "nn/ops.h"
#include "util/error.h"

namespace spectra::reference {

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

}  // namespace spectra::reference
