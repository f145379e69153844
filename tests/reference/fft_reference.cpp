#include "reference/fft_reference.h"

#include <cmath>

#include "util/error.h"

namespace spectra::reference {
namespace {

// Iterative Cooley-Tukey, N a power of two. `sign` is -1 for the forward
// transform, +1 for the (unscaled) inverse.
void radix2(std::vector<Complex>& a, int sign) {
  const std::size_t n = a.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex u = a[i + j];
        const Complex v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

struct BluesteinPlan {
  long n = 0;
  long m = 0;
  std::vector<Complex> chirp;   // w_k = exp(sign*i*pi*k^2/n)
  std::vector<Complex> kernel;  // FFT of the padded conjugate chirp
};

BluesteinPlan build_bluestein_plan(long n, int sign) {
  BluesteinPlan plan;
  plan.n = n;
  long m = 1;
  while (m < 2 * n - 1) m <<= 1;
  plan.m = m;
  plan.chirp.resize(static_cast<std::size_t>(n));
  for (long k = 0; k < n; ++k) {
    // k^2 taken mod 2n to keep the argument small for large k.
    const long k2 = (k * k) % (2 * n);
    const double angle = sign * M_PI * static_cast<double>(k2) / static_cast<double>(n);
    plan.chirp[static_cast<std::size_t>(k)] = Complex(std::cos(angle), std::sin(angle));
  }
  plan.kernel.assign(static_cast<std::size_t>(m), Complex(0.0, 0.0));
  for (long k = 0; k < n; ++k) {
    const Complex c = std::conj(plan.chirp[static_cast<std::size_t>(k)]);
    plan.kernel[static_cast<std::size_t>(k)] = c;
    if (k != 0) plan.kernel[static_cast<std::size_t>(m - k)] = c;
  }
  radix2(plan.kernel, -1);
  return plan;
}

// Bluestein's algorithm: an arbitrary-length DFT as a convolution,
// evaluated with a zero-padded power-of-two FFT.
void bluestein(std::vector<Complex>& a, int sign) {
  const long n = static_cast<long>(a.size());
  const BluesteinPlan plan = build_bluestein_plan(n, sign);
  const long m = plan.m;
  std::vector<Complex> u(static_cast<std::size_t>(m), Complex(0.0, 0.0));
  for (long k = 0; k < n; ++k) {
    u[static_cast<std::size_t>(k)] =
        a[static_cast<std::size_t>(k)] * plan.chirp[static_cast<std::size_t>(k)];
  }
  radix2(u, -1);
  for (long k = 0; k < m; ++k) {
    u[static_cast<std::size_t>(k)] *= plan.kernel[static_cast<std::size_t>(k)];
  }
  radix2(u, +1);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (long k = 0; k < n; ++k) {
    a[static_cast<std::size_t>(k)] =
        u[static_cast<std::size_t>(k)] * inv_m * plan.chirp[static_cast<std::size_t>(k)];
  }
}

// exp(-2*pi*i*k/n), k = 0..n/2.
std::vector<Complex> rfft_twiddles(long n) {
  const long h = n / 2;
  std::vector<Complex> twiddle(static_cast<std::size_t>(h + 1));
  for (long k = 0; k <= h; ++k) {
    const double angle = -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n);
    twiddle[static_cast<std::size_t>(k)] = Complex(std::cos(angle), std::sin(angle));
  }
  return twiddle;
}

// Pack x into z[j] = x[2j] + i·x[2j+1], FFT at half length, then split
// even/odd spectra with the twiddles.
std::vector<Complex> rfft_pow2(const std::vector<double>& x) {
  const long n = static_cast<long>(x.size());
  const long h = n / 2;
  const std::vector<Complex> twiddle = rfft_twiddles(n);
  std::vector<Complex> z(static_cast<std::size_t>(h));
  for (long j = 0; j < h; ++j) {
    z[static_cast<std::size_t>(j)] =
        Complex(x[static_cast<std::size_t>(2 * j)], x[static_cast<std::size_t>(2 * j + 1)]);
  }
  radix2(z, -1);
  std::vector<Complex> out(static_cast<std::size_t>(h + 1));
  out[0] = Complex(z[0].real() + z[0].imag(), 0.0);
  out[static_cast<std::size_t>(h)] = Complex(z[0].real() - z[0].imag(), 0.0);
  for (long k = 1; k < h; ++k) {
    const Complex zk = z[static_cast<std::size_t>(k)];
    const Complex zc = std::conj(z[static_cast<std::size_t>(h - k)]);
    const Complex even = 0.5 * (zk + zc);
    const Complex odd = Complex(0.0, -0.5) * (zk - zc);
    out[static_cast<std::size_t>(k)] = even + twiddle[static_cast<std::size_t>(k)] * odd;
  }
  return out;
}

// Inverse of rfft_pow2, DC and Nyquist pinned to the real axis.
std::vector<double> irfft_pow2(const std::vector<Complex>& spectrum, long n) {
  const long h = n / 2;
  const std::vector<Complex> twiddle = rfft_twiddles(n);
  std::vector<Complex> z(static_cast<std::size_t>(h));
  const Complex x_dc(spectrum[0].real(), 0.0);
  const Complex x_ny(spectrum[static_cast<std::size_t>(h)].real(), 0.0);
  for (long k = 0; k < h; ++k) {
    const Complex xk = k == 0 ? x_dc : spectrum[static_cast<std::size_t>(k)];
    const Complex xc =
        k == 0 ? x_ny : std::conj(spectrum[static_cast<std::size_t>(h - k)]);
    const Complex even = 0.5 * (xk + xc);
    const Complex odd = std::conj(twiddle[static_cast<std::size_t>(k)]) * (0.5 * (xk - xc));
    z[static_cast<std::size_t>(k)] = even + Complex(0.0, 1.0) * odd;
  }
  radix2(z, +1);
  std::vector<double> out(static_cast<std::size_t>(n));
  const double inv_h = 1.0 / static_cast<double>(h);
  for (long j = 0; j < h; ++j) {
    out[static_cast<std::size_t>(2 * j)] = z[static_cast<std::size_t>(j)].real() * inv_h;
    out[static_cast<std::size_t>(2 * j + 1)] = z[static_cast<std::size_t>(j)].imag() * inv_h;
  }
  return out;
}

}  // namespace

void fft_inplace(std::vector<Complex>& a, bool inverse) {
  const long n = static_cast<long>(a.size());
  if (n <= 1) return;
  const int sign = inverse ? +1 : -1;
  if (dsp::is_power_of_two(n)) {
    radix2(a, sign);
  } else {
    bluestein(a, sign);
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (Complex& c : a) c *= inv_n;
  }
}

std::vector<Complex> rfft(const std::vector<double>& x) {
  const long n = static_cast<long>(x.size());
  SG_CHECK(n >= 1, "rfft of empty signal");
  if (dsp::is_power_of_two(n) && n >= 2) return rfft_pow2(x);
  std::vector<Complex> a(x.begin(), x.end());
  fft_inplace(a, false);
  a.resize(static_cast<std::size_t>(n / 2 + 1));
  return a;
}

std::vector<double> irfft(const std::vector<Complex>& spectrum, long n) {
  SG_CHECK(n >= 1 && static_cast<long>(spectrum.size()) == n / 2 + 1,
           "irfft: spectrum size must be n/2+1");
  if (dsp::is_power_of_two(n) && n >= 2) return irfft_pow2(spectrum, n);
  std::vector<Complex> full(static_cast<std::size_t>(n));
  for (long k = 0; k <= n / 2; ++k) {
    full[static_cast<std::size_t>(k)] = spectrum[static_cast<std::size_t>(k)];
  }
  for (long k = n / 2 + 1; k < n; ++k) {
    full[static_cast<std::size_t>(k)] = std::conj(spectrum[static_cast<std::size_t>(n - k)]);
  }
  fft_inplace(full, true);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = full[static_cast<std::size_t>(i)].real();
  }
  return out;
}

std::vector<Complex> rfft_bluestein(const std::vector<double>& x) {
  const long n = static_cast<long>(x.size());
  SG_CHECK(n >= 1, "rfft_bluestein of empty signal");
  std::vector<Complex> a(x.begin(), x.end());
  if (n > 1) bluestein(a, -1);
  a.resize(static_cast<std::size_t>(n / 2 + 1));
  return a;
}

}  // namespace spectra::reference
