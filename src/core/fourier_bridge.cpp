#include "core/fourier_bridge.h"

#include <algorithm>
#include <vector>

#include "dsp/fft.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace spectra::core {

using nn::Tensor;
using nn::Var;

Var irfft_bridge(const Var& spectrum, long base_steps, long expand_k) {
  SG_PROFILE_SCOPE("core/irfft_bridge");
  const Tensor& spec = spectrum.value();
  SG_CHECK(spec.rank() == 3, "irfft_bridge expects [B, 2*Fgen, P]");
  SG_CHECK(base_steps >= 2 && expand_k >= 1, "invalid irfft_bridge geometry");
  const long B = spec.dim(0);
  const long two_f = spec.dim(1);
  const long P = spec.dim(2);
  SG_CHECK(two_f % 2 == 0, "spectrum channel count must be even (re/im interleaved)");
  const long f_gen = two_f / 2;
  SG_CHECK(f_gen <= base_steps / 2 + 1, "more generated bins than the base signal supports");

  const long t_out = expand_k * base_steps;
  const long f_out = t_out / 2 + 1;
  // Normalized-spectrum convention: the generator emits Y/T (so its
  // outputs are O(signal) rather than O(signal * T)); the bridge restores
  // the unnormalized bins and applies the k-multiple energy scale.
  const double k_scale = static_cast<double>(expand_k) * static_cast<double>(base_steps);

  Tensor out({B, t_out, P});
  // A batch row's P pixel series are lane-minor in both tensors, so each
  // row is one lane-batched inverse transform. Rows are independent and
  // write disjoint slices of `out`, so the pool chunks the B axis and the
  // result is bitwise identical for any thread count.
  parallel_for(static_cast<std::size_t>(B), /*grain=*/1, [&](std::size_t begin, std::size_t end) {
    std::vector<double> re(static_cast<std::size_t>(f_out * P));
    std::vector<double> im(re.size());
    std::vector<double> series(static_cast<std::size_t>(t_out * P));
    for (long b = static_cast<long>(begin); b < static_cast<long>(end); ++b) {
      std::fill(re.begin(), re.end(), 0.0);
      std::fill(im.begin(), im.end(), 0.0);
      for (long i = 0; i < f_gen; ++i) {
        // Channel layout: [re_0, im_0, re_1, im_1, ...] over axis 1.
        const float* src_re = spec.data() + (b * two_f + 2 * i) * P;
        const float* src_im = spec.data() + (b * two_f + 2 * i + 1) * P;
        double* dst_re = re.data() + expand_k * i * P;
        double* dst_im = im.data() + expand_k * i * P;
        for (long p = 0; p < P; ++p) {
          dst_re[p] = static_cast<double>(src_re[p]) * k_scale;
          dst_im[p] = static_cast<double>(src_im[p]) * k_scale;
        }
      }
      dsp::irfft_lanes(re.data(), im.data(), t_out, P, series.data());
      float* dst = out.data() + b * t_out * P;
      for (long j = 0; j < t_out * P; ++j) {
        dst[j] = static_cast<float>(series[static_cast<std::size_t>(j)]);
      }
    }
  });

  return Var::make_op(
      std::move(out), {spectrum},
      [B, two_f, f_gen, P, t_out, f_out, expand_k, k_scale](const Tensor& g,
                                                             std::vector<Var>& parents) {
        if (!parents[0].requires_grad()) return;
        SG_PROFILE_SCOPE("core/irfft_bridge_backward");
        Tensor& gs = parents[0].grad_storage();
        // One lane-batched rfft per batch row; gradient writes touch only
        // that row, so the B axis parallelizes with disjoint writes.
        parallel_for(
            static_cast<std::size_t>(B), /*grain=*/1, [&](std::size_t begin, std::size_t end) {
              std::vector<double> series(static_cast<std::size_t>(t_out * P));
              std::vector<double> re(static_cast<std::size_t>(f_out * P));
              std::vector<double> im(re.size());
              for (long b = static_cast<long>(begin); b < static_cast<long>(end); ++b) {
                const float* src = g.data() + b * t_out * P;
                for (long j = 0; j < t_out * P; ++j) {
                  series[static_cast<std::size_t>(j)] = static_cast<double>(src[j]);
                }
                dsp::rfft_lanes(series.data(), t_out, P, re.data(), im.data());
                for (long i = 0; i < f_gen; ++i) {
                  const long bin = expand_k * i;
                  // Hermitian weighting: interior bins appear twice in the
                  // inverse transform, DC and Nyquist once.
                  const bool edge = (bin == 0) || (2 * bin == t_out);
                  const double c = (edge ? 1.0 : 2.0) * k_scale / static_cast<double>(t_out);
                  const double* src_re = re.data() + bin * P;
                  const double* src_im = im.data() + bin * P;
                  float* dst_re = gs.data() + (b * two_f + 2 * i) * P;
                  float* dst_im = gs.data() + (b * two_f + 2 * i + 1) * P;
                  for (long p = 0; p < P; ++p) {
                    dst_re[p] += static_cast<float>(c * src_re[p]);
                    if (!edge) dst_im[p] += static_cast<float>(c * src_im[p]);
                  }
                }
              }
            });
      });
}

}  // namespace spectra::core
