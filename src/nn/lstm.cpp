#include "nn/lstm.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "nn/activations.h"
#include "nn/gemm.h"
#include "nn/init.h"
#include "obs/profile.h"
#include "util/error.h"

namespace spectra::nn {

namespace {

using gemm::Trans;

std::size_t size(long n) { return static_cast<std::size_t>(n); }

Tensor gate_bias(long hidden) {
  Tensor bias = init::zeros({4 * hidden});
  // Forget-gate bias at 1.0: standard trick so early training does not
  // immediately flush the cell state.
  for (long i = hidden; i < 2 * hidden; ++i) bias[i] = 1.0f;
  return bias;
}

// The recurrence's state, gate-major ([·][H][B]). While the graph
// records, every step keeps its own slot for the backward closure, which
// owns the tape (never the module, so one model serves two threads), and
// slot 0 of c and h holds the zero initial state. Otherwise each
// quantity has one slot that every step reuses in place.
struct Tape {
  Tape(long batch_size, long step_count, long hidden, bool keep_steps)
      : batch(batch_size),
        steps(step_count),
        keep(keep_steps),
        acts(size((keep_steps ? step_count : 1) * 4 * hidden * batch_size)),
        c(size((keep_steps ? step_count + 1 : 1) * hidden * batch_size)),
        tanh_c(size((keep_steps ? step_count : 1) * hidden * batch_size)),
        h(c.size()) {}

  long slot(long t) const { return keep ? t : 0; }

  long batch;
  long steps;
  bool keep;
  std::vector<float> acts;    // i | f | g | o after activation
  std::vector<float> c;
  std::vector<float> tanh_c;
  std::vector<float> h;
  std::vector<float> y;  // [B][T][out] head outputs (kept for a sigmoid head)
  std::vector<float> x;  // critic form: input rows [T·B][S+D], step-major
};

// The head outputs y [B, T, out] of one forward, and its tape, which
// keeps every step only while the graph records.
struct Forward {
  std::shared_ptr<Tape> tape;
  Tensor y;
};

// One forward of either form. `project(t, x)` returns step t's input
// projection [B, 4H], computing it into `x` when it has to. Each h_t
// lands in a [B, T, H] buffer, and after the loop one GEMM computes the
// head of every (row, step): row (b, t) is step t's head row b, then the
// bias add and the activation, so y holds the per-step graph's head
// outputs. Nothing is allocated per step.
template <class Project>
Forward sequence_forward(const Tensor& wh, const Tensor& bias, const Tensor& w_out,
                         const Tensor& b_out, Activation activation, long batch, long steps,
                         Project&& project) {
  const long hidden = wh.dim(0);
  const long gates = 4 * hidden;
  const long hb = hidden * batch;
  const auto n_hb = size(hb);
  const long out = w_out.dim(1);
  const long rows = batch * steps;
  if (obs::profile_enabled()) {
    // The gate math only (~40 nominal flops per hidden element: gate
    // sums, three sigmoids, two tanhs, cell/output blends); the GEMMs
    // account for themselves on nested nn/gemm nodes.
    const double bht = static_cast<double>(hidden * rows);
    obs::profile_add_work(40.0 * bht, 10.0 * bht * 4.0);
  }
  std::vector<float> x_buf(size(batch * gates));
  std::vector<float> pre(x_buf.size());
  auto tape = std::make_shared<Tape>(batch, steps, hidden, !InferenceGuard::active());
  std::vector<float> hs(size(rows * hidden));
  for (long t = 0; t < steps; ++t) {
    float* zi = tape->acts.data() + tape->slot(t) * 4 * hb;  // blocks i | f | g | o
    float* zf = zi + hb;
    float* zg = zi + 2 * hb;
    float* zo = zi + 3 * hb;
    const float* h_prev = tape->h.data() + tape->slot(t) * hb;
    float* h = tape->h.data() + tape->slot(t + 1) * hb;
    const float* c_prev = tape->c.data() + tape->slot(t) * hb;
    float* c = tape->c.data() + tape->slot(t + 1) * hb;
    float* tanh_c = tape->tanh_c.data() + tape->slot(t) * hb;
    // pre = h·Wh, reading the [H, B] state as the transposed A operand.
    gemm::sgemm(Trans::kTrans, Trans::kNo, batch, gates, hidden, h_prev, batch, wh.data(), gates,
                pre.data(), gates, /*accumulate=*/false);
    const float* x = project(t, x_buf.data());
    // z = (x_t + pre) + b, written gate-major, so each activation runs
    // once per step over a whole gate block.
    for (long b = 0; b < batch; ++b) {
      const float* x_row = x + b * gates;
      const float* pre_row = pre.data() + b * gates;
      for (long j = 0; j < gates; ++j) zi[j * batch + b] = (x_row[j] + pre_row[j]) + bias[j];
    }
    act::sigmoid(zi, zi, 2 * n_hb);
    act::tanh(zg, zg, n_hb);
    act::sigmoid(zo, zo, n_hb);
    for (long k = 0; k < hb; ++k) c[k] = (zf[k] * c_prev[k]) + (zi[k] * zg[k]);
    act::tanh(c, tanh_c, n_hb);
    for (long j = 0; j < hidden; ++j) {
      for (long b = 0; b < batch; ++b) {
        const long k = j * batch + b;
        h[k] = zo[k] * tanh_c[k];
        hs[size((b * steps + t) * hidden + j)] = h[k];
      }
    }
  }
  Tensor y({batch, steps, out});
  gemm::sgemm(Trans::kNo, Trans::kNo, rows, out, hidden, hs.data(), hidden, w_out.data(), out,
              y.data(), out, /*accumulate=*/false);
  for (long r = 0; r < rows; ++r) {
    float* row = y.data() + r * out;
    for (long j = 0; j < out; ++j) row[j] = row[j] + b_out[j];
  }
  if (activation == Activation::kSigmoid) {
    act::sigmoid(y.data(), y.data(), size(rows * out));
    if (tape->keep) tape->y.assign(y.data(), y.data() + rows * out);
  }
  return {std::move(tape), std::move(y)};
}

// The backward both forms share, replaying the per-step graph's
// accumulation order (DESIGN §6c). Step t's output gradient for row b is
// 0 + g[b·(g.numel() / B) + t·g_step]·scale (the zero-initialised buffers
// of the stacked outputs, or of the mean and its add chain), then the
// sigmoid node's backward. BPTT then runs the graph's closures t
// descending; in a step the head's come first (b_out, then dh and W_out),
// then the cell's (dc, the gate gradients, dh_{t-1}, W_h, b, dc_{t-1}).
// So the next step's recurrent term reaches dh and dc before the head's:
//   dh_t = (0 + dgates_{t+1}·W_hᵀ) + dm_t·W_outᵀ
//   dc_t = (0 + dc_{t+1}⊙f_{t+1}) + (dh_t⊙o_t)(1 − tanh² c_t)
// Every parameter gradient accumulates once per step with the graph's
// K = B products. `params` are W_x, W_h, b, W_out, b_out. Returns each
// step's gate gradients, the input projection's gradient [T·B, 4H],
// step-major, whose products each form takes from there.
std::vector<float> sequence_backward(const Tape& tape, const Tensor& g, long g_step, float scale,
                                     Activation activation, Var* params) {
  Var& w_h = params[1];
  Var& bias = params[2];
  Var& w_out = params[3];
  Var& b_out = params[4];
  const long batch = tape.batch;
  const long steps = tape.steps;
  const long hidden = w_h.value().dim(0);
  const long gates = 4 * hidden;
  const long out = w_out.value().dim(1);
  const long hb = hidden * batch;
  const long dm_ld = steps * out;  // row stride of one step's [B, out] block of dm
  const long g_ld = g.numel() / batch;
  std::vector<float> dm(size(batch * dm_ld));
  for (long b = 0; b < batch; ++b) {
    for (long t = 0; t < steps; ++t) {
      for (long j = 0; j < out; ++j) {
        const std::size_t i = size(b * dm_ld + t * out + j);
        dm[i] = 0.0f + g[b * g_ld + t * g_step + j] * scale;
        if (activation == Activation::kSigmoid) {
          dm[i] = 0.0f + dm[i] * (tape.y[i] * (1.0f - tape.y[i]));
        }
      }
    }
  }
  const float* wh = w_h.value().data();
  const float* wo = w_out.value().data();
  // The head's dh term of every step at once. A GEMM adds a block sum
  // computed from +0 to its C, so adding this product to dh gives the
  // graph's accumulating per-step product bit for bit while K = out fits
  // one k block; a wider head accumulates per step.
  const bool batched_head = out <= gemm::kKC;
  std::vector<float> head_dh;
  if (batched_head) {
    head_dh.resize(size(batch * steps * hidden));
    gemm::sgemm(Trans::kNo, Trans::kTrans, batch * steps, hidden, out, dm.data(), out, wo, out,
                head_dh.data(), hidden, /*accumulate=*/false);
  }
  // dh and dc [B, H] play the h and c nodes' zero-initialised buffers;
  // dxp's zero rows those of the input projection.
  std::vector<float> dh(size(batch * hidden), 0.0f);
  std::vector<float> dc(dh.size(), 0.0f);
  std::vector<float> dxp(size(steps * batch * gates), 0.0f);
  for (long t = steps - 1; t >= 0; --t) {
    const float* dm_t = dm.data() + t * out;
    const float* acts = tape.acts.data() + t * 4 * hb;
    const float* tanh_c = tape.tanh_c.data() + t * hb;
    const float* c_prev = tape.c.data() + t * hb;
    const float* h_prev = tape.h.data() + t * hb;
    if (b_out.requires_grad()) {
      float* gb = b_out.grad_storage().data();
      for (long b = 0; b < batch; ++b) {
        for (long j = 0; j < out; ++j) gb[j] += dm_t[b * dm_ld + j];
      }
    }
    if (batched_head) {
      for (long b = 0; b < batch; ++b) {
        const float* row = head_dh.data() + (b * steps + t) * hidden;
        for (long j = 0; j < hidden; ++j) dh[size(b * hidden + j)] += row[j];
      }
    } else {
      gemm::sgemm(Trans::kNo, Trans::kTrans, batch, hidden, out, dm_t, dm_ld, wo, out, dh.data(),
                  hidden, /*accumulate=*/true);
    }
    if (w_out.requires_grad()) {
      gemm::sgemm(Trans::kNo, Trans::kNo, hidden, out, batch, h_prev + hb, batch, dm_t, dm_ld,
                  w_out.grad_storage().data(), out, /*accumulate=*/true);
    }
    // The tanh path's term of dc, then the gate gradients, each
    // parenthesised so it equals the graph's backward chain bit for bit.
    float* dg = dxp.data() + t * batch * gates;
    for (long b = 0; b < batch; ++b) {
      float* dg_row = dg + b * gates;
      for (long j = 0; j < hidden; ++j) {
        const long k = j * batch + b;
        const std::size_t r = size(b * hidden + j);
        const float iv = acts[k];
        const float fv = acts[hb + k];
        const float gv = acts[2 * hb + k];
        const float ov = acts[3 * hb + k];
        const float tc = tanh_c[k];
        const float dcv = dc[r] + (dh[r] * ov) * (1.0f - tc * tc);
        dc[r] = dcv;
        dg_row[j] += (dcv * gv) * (iv * (1.0f - iv));
        dg_row[hidden + j] += (dcv * c_prev[k]) * (fv * (1.0f - fv));
        dg_row[2 * hidden + j] += (dcv * iv) * (1.0f - gv * gv);
        dg_row[3 * hidden + j] += (dh[r] * tc) * (ov * (1.0f - ov));
      }
    }
    if (t > 0) {
      // dh_{t-1} = 0 + dgates·W_hᵀ, the recurrent matmul's NT product.
      std::fill(dh.begin(), dh.end(), 0.0f);
      gemm::sgemm(Trans::kNo, Trans::kTrans, batch, hidden, gates, dg, gates, wh, gates, dh.data(),
                  hidden, /*accumulate=*/true);
    }
    if (w_h.requires_grad()) {
      // dW_h += h_{t-1}ᵀ·dgates, at t = 0 over the zero initial state as
      // the graph's product is.
      gemm::sgemm(Trans::kNo, Trans::kNo, hidden, gates, batch, h_prev, batch, dg, gates,
                  w_h.grad_storage().data(), gates, /*accumulate=*/true);
    }
    if (bias.requires_grad()) {
      float* gb = bias.grad_storage().data();
      for (long b = 0; b < batch; ++b) {
        for (long j = 0; j < gates; ++j) gb[j] += dg[b * gates + j];
      }
    }
    if (t > 0) {
      for (long b = 0; b < batch; ++b) {
        for (long j = 0; j < hidden; ++j) {
          const std::size_t r = size(b * hidden + j);
          dc[r] = 0.0f + dc[r] * acts[hb + j * batch + b];
        }
      }
    }
  }
  return dxp;
}

// dX = dxp·W_x[:, col0 : col0 + cols]ᵀ over every step-major row: rows
// and columns are independent, so each element is the per-step graph's.
// The conditioning columns, from `cond_col`, are added into cond t
// descending, as the per-step concat closures add them.
std::vector<float> input_gradient(const Tape& tape, const std::vector<float>& dxp,
                                  const Tensor& w_x, long col0, long cols, Var& cond,
                                  long cond_col) {
  const long gates = w_x.dim(1);
  const long rows = tape.steps * tape.batch;
  std::vector<float> dx(size(rows * cols), 0.0f);
  gemm::sgemm(Trans::kNo, Trans::kTrans, rows, cols, gates, dxp.data(), gates,
              w_x.data() + col0 * gates, gates, dx.data(), cols, /*accumulate=*/true);
  if (cond.requires_grad()) {
    const long d = cond.value().dim(1);
    float* gc = cond.grad_storage().data();
    for (long r = rows - 1; r >= 0; --r) {
      const float* src = dx.data() + r * cols + (cond_col - col0);
      float* dst = gc + (r % tape.batch) * d;
      for (long q = 0; q < d; ++q) dst[q] += src[q];
    }
  }
  return dx;
}

}  // namespace

Lstm::Lstm(long input_size, long hidden_size, long output_size, Rng& rng,
           Activation output_activation)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      output_size_(output_size),
      output_activation_(output_activation),
      weight_x_(register_parameter(init::xavier_uniform({input_size, 4 * hidden_size}, input_size,
                                                        hidden_size, rng))),
      weight_h_(register_parameter(init::xavier_uniform({hidden_size, 4 * hidden_size},
                                                        hidden_size, hidden_size, rng))),
      bias_(register_parameter(gate_bias(hidden_size))),
      weight_out_(register_parameter(
          init::xavier_uniform({hidden_size, output_size}, hidden_size, output_size, rng))),
      bias_out_(register_parameter(init::zeros({output_size}))) {
  SG_CHECK(input_size > 0 && hidden_size > 0 && output_size > 0, "Lstm requires positive sizes");
  SG_CHECK(output_activation == Activation::kNone || output_activation == Activation::kSigmoid,
           "Lstm head activation must be none or sigmoid");
}

Var Lstm::generate(const Var& cond, const Tensor& clock) const {
  SG_PROFILE_SCOPE("nn/lstm_forward");
  const Tensor& rows = cond.value();
  SG_CHECK(rows.rank() == 2 && clock.rank() == 2,
           "Lstm::generate expects [B, D] conditioning and a [T, F] clock");
  const long batch = rows.dim(0);
  const long d = rows.dim(1);
  const long steps = clock.dim(0);
  const long f = clock.dim(1);
  SG_CHECK(batch > 0 && steps > 0, "Lstm::generate requires a positive batch and step count");
  SG_CHECK(d + f == input_size_, "Lstm::generate input widths must sum to the input size");
  // The per-step graph projects every step with one [T·B, D+F] GEMM,
  // which reduces each element p-ascending from +0 only while D+F fits
  // one k block. Here the D conditioning terms are summed once per row
  // and each step's F clock terms continue those sums.
  SG_CHECK(d + f <= gemm::kKC, "Lstm::generate requires input size <= gemm::kKC");
  const long gates = 4 * hidden_size_;
  const float* wx = weight_x_.value().data();
  std::vector<float> base(size(batch * gates));
  gemm::sgemm(Trans::kNo, Trans::kNo, batch, gates, d, rows.data(), d, wx, gates, base.data(),
              gates, /*accumulate=*/false);
  const float* w_clock = wx + d * gates;  // rows D..D+F-1 of W_x
  auto project = [&](long t, float* x) {
    std::copy(base.begin(), base.end(), x);
    for (long p = 0; p < f; ++p) {
      const float a = clock[t * f + p];
      const float* w_row = w_clock + p * gates;
      for (long b = 0; b < batch; ++b) {
        float* x_row = x + b * gates;
        for (long j = 0; j < gates; ++j) x_row[j] += a * w_row[j];
      }
    }
    return static_cast<const float*>(x);
  };
  Forward fwd = sequence_forward(weight_h_.value(), bias_.value(), weight_out_.value(),
                                 bias_out_.value(), output_activation_, batch, steps, project);
  std::shared_ptr<Tape> tape = std::move(fwd.tape);
  if (!tape->keep) return Var::constant(std::move(fwd.y));

  return Var::make_op(
      std::move(fwd.y), {cond, weight_x_, weight_h_, bias_, weight_out_, bias_out_},
      [tape, clock, activation = output_activation_](const Tensor& g, std::vector<Var>& parents) {
        Var& p_cond = parents[0];
        Var& p_wx = parents[1];
        const std::vector<float> dxp =
            sequence_backward(*tape, g, g.dim(2), 1.0f, activation, &parents[1]);
        const long rows_n = tape->batch * tape->steps;
        const long gates_n = p_wx.value().dim(1);
        const long d_n = p_cond.value().dim(1);
        const long f_n = clock.dim(1);
        if (p_wx.requires_grad()) {
          // dW_x += Xᵀ·dxp over the [cond[b], clock[t]] rows, step-major:
          // one TN product over every row, as the graph's projection.
          std::vector<float> x(size(rows_n * (d_n + f_n)));
          for (long r = 0; r < rows_n; ++r) {
            const float* cond_row = p_cond.value().data() + (r % tape->batch) * d_n;
            const float* clock_row = clock.data() + (r / tape->batch) * f_n;
            float* row = x.data() + r * (d_n + f_n);
            std::copy(clock_row, clock_row + f_n, std::copy(cond_row, cond_row + d_n, row));
          }
          gemm::sgemm(Trans::kTrans, Trans::kNo, d_n + f_n, gates_n, rows_n, x.data(), d_n + f_n,
                      dxp.data(), gates_n, p_wx.grad_storage().data(), gates_n,
                      /*accumulate=*/true);
        }
        if (p_cond.requires_grad()) input_gradient(*tape, dxp, p_wx.value(), 0, d_n, p_cond, 0);
      });
}

Var Lstm::critique(const Var& series, const Var& cond, long stride) const {
  SG_PROFILE_SCOPE("nn/lstm_forward");
  const Tensor& s = series.value();
  const Tensor& rows = cond.value();
  SG_CHECK(s.rank() == 3 && rows.rank() == 2,
           "Lstm::critique expects a [B, T, S] series and [B, D] conditioning");
  SG_CHECK(stride >= 1, "Lstm::critique requires stride >= 1");
  const long batch = s.dim(0);
  const long length = s.dim(1);
  const long width = s.dim(2);
  const long d = rows.dim(1);
  SG_CHECK(batch > 0 && length > 0 && rows.dim(0) == batch,
           "Lstm::critique requires a positive batch and length shared by series and cond");
  SG_CHECK(width + d == input_size_, "Lstm::critique input widths must sum to the input size");
  const long steps = (length + stride - 1) / stride;
  const long in = input_size_;
  const long gates = 4 * hidden_size_;
  const long out = output_size_;
  // The input rows [series[b, k·stride, :], cond[b]], step-major, and
  // their projection in one GEMM; rows are independent, so each equals
  // the per-step graph's product.
  std::vector<float> x(size(steps * batch * in));
  for (long r = 0; r < steps * batch; ++r) {
    const long b = r % batch;
    const float* src = s.data() + (b * length + (r / batch) * stride) * width;
    std::copy(rows.data() + b * d, rows.data() + (b + 1) * d,
              std::copy(src, src + width, x.data() + r * in));
  }
  std::vector<float> xp(size(steps * batch * gates));
  gemm::sgemm(Trans::kNo, Trans::kNo, steps * batch, gates, in, x.data(), in,
              weight_x_.value().data(), gates, xp.data(), gates, /*accumulate=*/false);
  const Forward fwd = sequence_forward(
      weight_h_.value(), bias_.value(), weight_out_.value(), bias_out_.value(), output_activation_,
      batch, steps,
      [&](long t, float*) { return static_cast<const float*>(xp.data() + t * batch * gates); });
  const Tensor& y = fwd.y;
  const std::shared_ptr<Tape>& tape = fwd.tape;
  // The mean: summed step-ascending from the first output, then scaled,
  // as the graph's add chain and mul_scalar do.
  const float scale = 1.0f / static_cast<float>(steps);
  Tensor mean({batch, out});
  for (long b = 0; b < batch; ++b) {
    for (long j = 0; j < out; ++j) {
      float acc = y[b * steps * out + j];
      for (long k = 1; k < steps; ++k) acc = acc + y[(b * steps + k) * out + j];
      mean[b * out + j] = acc * scale;
    }
  }
  if (!tape->keep) return Var::constant(std::move(mean));
  tape->x = std::move(x);

  return Var::make_op(
      std::move(mean), {series, cond, weight_x_, weight_h_, bias_, weight_out_, bias_out_},
      [tape, scale, stride, activation = output_activation_](const Tensor& g,
                                                             std::vector<Var>& parents) {
        Var& p_series = parents[0];
        Var& p_cond = parents[1];
        Var& p_wx = parents[2];
        const std::vector<float> dxp =
            sequence_backward(*tape, g, /*g_step=*/0, scale, activation, &parents[2]);
        const long batch_n = tape->batch;
        const long in_n = p_wx.value().dim(0);
        const long gates_n = p_wx.value().dim(1);
        const long width_n = p_series.value().dim(2);
        if (p_wx.requires_grad()) {
          // dW_x += X_kᵀ·dgates_k per step, t descending, K = B: the
          // per-step projection's backward.
          for (long k = tape->steps - 1; k >= 0; --k) {
            gemm::sgemm(Trans::kTrans, Trans::kNo, in_n, gates_n, batch_n,
                        tape->x.data() + k * batch_n * in_n, in_n,
                        dxp.data() + k * batch_n * gates_n, gates_n,
                        p_wx.grad_storage().data(), gates_n, /*accumulate=*/true);
          }
        }
        if (!p_series.requires_grad() && !p_cond.requires_grad()) return;
        // The series columns are needed only when the series takes a
        // gradient; each of its elements receives one step's row.
        const long col0 = p_series.requires_grad() ? 0 : width_n;
        const std::vector<float> dx =
            input_gradient(*tape, dxp, p_wx.value(), col0, in_n - col0, p_cond, width_n);
        if (!p_series.requires_grad()) return;
        for (long r = 0; r < tape->steps * batch_n; ++r) {
          const long at = (r % batch_n) * p_series.value().dim(1) + (r / batch_n) * stride;
          float* gs = p_series.grad_storage().data() + at * width_n;
          for (long q = 0; q < width_n; ++q) gs[q] += dx[size(r * in_n + q)];
        }
      });
}

ConvLstmCell::ConvLstmCell(long input_channels, long hidden_channels, long kernel, Rng& rng)
    : input_channels_(input_channels),
      hidden_channels_(hidden_channels),
      gates_(input_channels + hidden_channels, 4 * hidden_channels, kernel,
             Conv2dSpec{.stride = 1, .padding = (kernel - 1) / 2}, rng) {
  SG_CHECK(kernel % 2 == 1, "ConvLstmCell kernel must be odd to preserve extents");
  register_child(gates_);
}

LstmState ConvLstmCell::initial_state(long batch, long height, long width) const {
  Tensor zero({batch, hidden_channels_, height, width});
  return {Var::constant(zero), Var::constant(std::move(zero))};
}

LstmState ConvLstmCell::step(const Var& x, const LstmState& state) const {
  SG_CHECK(x.value().rank() == 4 && x.value().dim(1) == input_channels_,
           "ConvLstmCell input must be [B, input_channels, H, W]");
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
