#include "reference/fourier_reference.h"

#include <algorithm>
#include <vector>

#include "dsp/spectrum.h"
#include "reference/fft_reference.h"

namespace spectra::reference {

nn::Tensor irfft_bridge_forward(const nn::Tensor& spectrum, long base_steps, long expand_k) {
  const long B = spectrum.dim(0);
  const long two_f = spectrum.dim(1);
  const long P = spectrum.dim(2);
  const long f_gen = two_f / 2;
  const long t_out = expand_k * base_steps;
  const long f_out = t_out / 2 + 1;
  const double k_scale = static_cast<double>(expand_k) * static_cast<double>(base_steps);
  nn::Tensor out({B, t_out, P});
  std::vector<Complex> full(static_cast<std::size_t>(f_out));
  for (long b = 0; b < B; ++b) {
    for (long p = 0; p < P; ++p) {
      std::fill(full.begin(), full.end(), Complex(0.0, 0.0));
      for (long i = 0; i < f_gen; ++i) {
        const double re = spectrum[(b * two_f + 2 * i) * P + p];
        const double im = spectrum[(b * two_f + 2 * i + 1) * P + p];
        full[static_cast<std::size_t>(expand_k * i)] = Complex(re, im) * k_scale;
      }
      const std::vector<double> series = irfft(full, t_out);
      for (long t = 0; t < t_out; ++t) {
        out[(b * t_out + t) * P + p] = static_cast<float>(series[static_cast<std::size_t>(t)]);
      }
    }
  }
  return out;
}

void irfft_bridge_backward(const nn::Tensor& g, long base_steps, long expand_k, nn::Tensor& grad) {
  const long B = grad.dim(0);
  const long two_f = grad.dim(1);
  const long P = grad.dim(2);
  const long f_gen = two_f / 2;
  const long t_out = expand_k * base_steps;
  const double k_scale = static_cast<double>(expand_k) * static_cast<double>(base_steps);
  std::vector<double> series(static_cast<std::size_t>(t_out));
  for (long b = 0; b < B; ++b) {
    for (long p = 0; p < P; ++p) {
      for (long t = 0; t < t_out; ++t) {
        series[static_cast<std::size_t>(t)] = g[(b * t_out + t) * P + p];
      }
      const std::vector<Complex> grad_spec = rfft(series);
      for (long i = 0; i < f_gen; ++i) {
        const long bin = expand_k * i;
        const bool edge = (bin == 0) || (2 * bin == t_out);
        const double c = (edge ? 1.0 : 2.0) * k_scale / static_cast<double>(t_out);
        const Complex gb = grad_spec[static_cast<std::size_t>(bin)];
        grad[(b * two_f + 2 * i) * P + p] += static_cast<float>(c * gb.real());
        if (!edge) grad[(b * two_f + 2 * i + 1) * P + p] += static_cast<float>(c * gb.imag());
      }
    }
  }
}

namespace {

template <typename BinFilter>
nn::Tensor spectrum_with_filter(const nn::Tensor& traffic, long f_gen, BinFilter filter) {
  const long B = traffic.dim(0);
  const long T = traffic.dim(1);
  const long P = traffic.dim(2);
  nn::Tensor out({B, 2 * f_gen, P});
  std::vector<double> series(static_cast<std::size_t>(T));
  for (long b = 0; b < B; ++b) {
    for (long p = 0; p < P; ++p) {
      for (long t = 0; t < T; ++t) {
        series[static_cast<std::size_t>(t)] = traffic[(b * T + t) * P + p];
      }
      std::vector<Complex> spec = rfft(series);
      spec.resize(static_cast<std::size_t>(f_gen));
      filter(spec);
      for (Complex& c : spec) c /= static_cast<double>(T);
      for (long i = 0; i < f_gen; ++i) {
        out[(b * 2 * f_gen + 2 * i) * P + p] =
            static_cast<float>(spec[static_cast<std::size_t>(i)].real());
        out[(b * 2 * f_gen + 2 * i + 1) * P + p] =
            static_cast<float>(spec[static_cast<std::size_t>(i)].imag());
      }
    }
  }
  return out;
}

}  // namespace

nn::Tensor batch_spectrum(const nn::Tensor& traffic, long f_gen) {
  return spectrum_with_filter(traffic, f_gen, [](std::vector<Complex>&) {});
}

nn::Tensor masked_spectrum_target(const nn::Tensor& traffic, long f_gen, double q) {
  return spectrum_with_filter(traffic, f_gen, [q](std::vector<Complex>& spec) {
    spec = dsp::quantile_mask(spec, q);
  });
}

}  // namespace spectra::reference
