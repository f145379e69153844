// Per-(b, p) reference loops for core's batched spectral ops: the irfft
// bridge (forward and backward) and the spectrum targets, one pixel
// series at a time through the scalar reference transforms
// (fft_reference.h). Core batches a row's P pixels into one lane call and
// must match these bit for bit. Serial, so the result is the same for any
// thread count.

#pragma once

#include "nn/tensor.h"

namespace spectra::reference {

// core::irfft_bridge's value: [B, 2*Fgen, P] -> [B, expand_k*base_steps, P].
nn::Tensor irfft_bridge_forward(const nn::Tensor& spectrum, long base_steps, long expand_k);

// core::irfft_bridge's backward: adds the spectrum gradient for the
// output gradient `g` [B, T_out, P] into `grad` [B, 2*Fgen, P].
void irfft_bridge_backward(const nn::Tensor& g, long base_steps, long expand_k, nn::Tensor& grad);

// core::batch_spectrum and core::masked_spectrum_target.
nn::Tensor batch_spectrum(const nn::Tensor& traffic, long f_gen);
nn::Tensor masked_spectrum_target(const nn::Tensor& traffic, long f_gen, double q);

}  // namespace spectra::reference
