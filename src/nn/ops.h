// Differentiable operators over `Var`.
//
// All ops are pure: they allocate a fresh output node whose backward
// closure accumulates into the parents. Shapes are validated eagerly so
// model-construction bugs surface at the op call site, not inside
// backward().

#pragma once

#include <vector>

#include "nn/autograd.h"

namespace spectra::nn {

// --- elementwise binary (operands must have identical shapes) ---
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var divide(const Var& a, const Var& b);

// --- scalar broadcast ---
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);

// --- elementwise unary ---
Var neg(const Var& a);
Var relu(const Var& a);
Var leaky_relu(const Var& a, float negative_slope = 0.2f);
Var vtanh(const Var& a);
Var sigmoid(const Var& a);
Var vexp(const Var& a);
// log(a + eps) for numerical safety.
Var vlog(const Var& a, float eps = 1e-12f);
Var softplus(const Var& a);
Var vabs(const Var& a);

// --- reductions (to rank-0 scalar) ---
Var sum(const Var& a);
Var mean(const Var& a);

// --- shape manipulation ---
Var reshape(const Var& a, Shape new_shape);

// Take `len` indices starting at `start` along `axis` (extent shrinks).
Var slice_axis(const Var& a, int axis, long start, long len);

// Columns [start, start+len) of a rank-2 tensor.
Var slice_cols(const Var& a, long start, long len);

// Index `i` along axis 0, removing that axis.
Var select0(const Var& a, long i);

// Stack equal-shaped tensors along a new leading axis.
Var stack0(const std::vector<Var>& parts);

// Concatenate along an existing axis; all other extents must match.
Var concat_axis(const std::vector<Var>& parts, int axis);

// Swap the two leading axes of a rank>=2 tensor: [A, B, ...] -> [B, A, ...].
Var transpose01(const Var& a);

// --- linear algebra ---
// [m,k] x [k,n] -> [m,n]
Var matmul(const Var& a, const Var& b);

// a: [m,n], bias: [n]; adds bias to every row.
Var add_rowvec(const Var& a, const Var& bias);

// Fully-connected layer primitive: x [B,in] * W [in,out] + b [out].
Var linear(const Var& x, const Var& weight, const Var& bias);

// --- losses (mean-reduced scalars) ---
Var mse_loss(const Var& pred, const Var& target);
Var l1_loss(const Var& pred, const Var& target);

// Numerically stable mean of BCE(sigmoid(logits), target).
Var bce_with_logits(const Var& logits, const Var& target);

// Convenience: BCE against a constant label (all-real / all-fake).
Var bce_with_logits_const(const Var& logits, float label);

}  // namespace spectra::nn
