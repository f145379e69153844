// Fast Fourier transforms: iterative radix-2 for power-of-two lengths and
// Bluestein's chirp-z algorithm for arbitrary lengths, plus real-input
// helpers (rfft/irfft) with NumPy conventions — forward unnormalized,
// inverse scaled by 1/N.
//
// These kernels serve double duty: the SpectraGAN generator's
// differentiable inverse transform (core/fourier_bridge) and the offline
// analysis in data characterization and metrics.
//
// One lane-batched engine implements every algorithm: the *_lanes entry
// points transform many equal-length series in one call, and the
// per-series functions are one-lane calls of the same kernels. Each
// lane's result is bitwise identical whatever the lane count.

#pragma once

#include <complex>
#include <vector>

namespace spectra::dsp {

using Complex = std::complex<double>;

// Lane-batched transforms of `lanes` series of length n. Every array is
// split into real and imaginary parts and laid out element-major,
// lane-minor: element k of series l sits at [k * lanes + l], so one batch
// row of a [B, T, P] tensor is P lanes as it stands.
//
// fft_lanes: in-place complex FFT (inverse: conjugate transform and 1/n).
void fft_lanes(double* re, double* im, long n, long lanes, bool inverse);

// rfft_lanes: x holds n samples per lane; re/im receive the n/2+1 bins.
void rfft_lanes(const double* x, long n, long lanes, double* re, double* im);

// irfft_lanes: re/im hold n/2+1 bins per lane; x receives n samples.
void irfft_lanes(const double* re, const double* im, long n, long lanes, double* x);

// In-place FFT of arbitrary length (radix-2 when N is a power of two,
// Bluestein otherwise). `inverse` applies the conjugate transform and the
// 1/N scale.
void fft_inplace(std::vector<Complex>& a, bool inverse);

std::vector<Complex> fft(std::vector<Complex> a);
std::vector<Complex> ifft(std::vector<Complex> a);

// Real-input FFT: returns the N/2+1 non-redundant bins. Power-of-two
// lengths take a half-spectrum fast path (one N/2-point complex FFT plus
// an O(N) twiddle unpack, counted by fft.rfft_fast_calls); other lengths
// fall back to the full-length complex transform.
std::vector<Complex> rfft(const std::vector<double>& x);

// Inverse of rfft; `n` is the output length (must satisfy n/2+1 == spectrum size).
// Power-of-two n takes the inverse half-spectrum fast path.
std::vector<double> irfft(const std::vector<Complex>& spectrum, long n);

// True if n is a power of two (n >= 1).
bool is_power_of_two(long n);

}  // namespace spectra::dsp
