#include "core/losses.h"

#include <vector>

#include "dsp/spectrum.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace spectra::core {

nn::Tensor context_tensor(const data::PatchBatch& batch) {
  return nn::Tensor({batch.batch, batch.channels, batch.context_h, batch.context_w},
                    batch.context);
}

nn::Tensor traffic_tensor(const data::PatchBatch& batch) {
  return nn::Tensor({batch.batch, batch.steps, batch.traffic_h * batch.traffic_w}, batch.traffic);
}

namespace {

template <typename BinFilter>
nn::Tensor spectrum_with_filter(const nn::Tensor& traffic, long f_gen, BinFilter filter) {
  SG_CHECK(traffic.rank() == 3, "batch_spectrum expects [B, T, P]");
  const long B = traffic.dim(0);
  const long T = traffic.dim(1);
  const long P = traffic.dim(2);
  SG_CHECK(f_gen >= 1 && f_gen <= T / 2 + 1, "f_gen out of range");

  nn::Tensor out({B, 2 * f_gen, P});
  // One lane-batched rfft per batch row (its P pixel series are already
  // lane-minor), then the per-series filter. Rows write disjoint slices
  // of `out`, so the pool chunks the B axis (bitwise deterministic).
  parallel_for(static_cast<std::size_t>(B), /*grain=*/1, [&](std::size_t begin, std::size_t end) {
    const long bins = T / 2 + 1;
    std::vector<double> series(static_cast<std::size_t>(T * P));
    std::vector<double> re(static_cast<std::size_t>(bins * P));
    std::vector<double> im(re.size());
    std::vector<dsp::Complex> spec;
    for (long b = static_cast<long>(begin); b < static_cast<long>(end); ++b) {
      const float* src = traffic.data() + b * T * P;
      for (long j = 0; j < T * P; ++j) {
        series[static_cast<std::size_t>(j)] = static_cast<double>(src[j]);
      }
      dsp::rfft_lanes(series.data(), T, P, re.data(), im.data());
      for (long p = 0; p < P; ++p) {
        spec.resize(static_cast<std::size_t>(f_gen));
        for (long i = 0; i < f_gen; ++i) {
          spec[static_cast<std::size_t>(i)] =
              dsp::Complex(re[static_cast<std::size_t>(i * P + p)],
                           im[static_cast<std::size_t>(i * P + p)]);
        }
        filter(spec);
        // Normalized-spectrum convention shared with irfft_bridge: targets
        // are Y/T so the spectrum L1 term is commensurate with the time L1.
        for (dsp::Complex& c : spec) c /= static_cast<double>(T);
        for (long i = 0; i < f_gen; ++i) {
          out[(b * 2 * f_gen + 2 * i) * P + p] =
              static_cast<float>(spec[static_cast<std::size_t>(i)].real());
          out[(b * 2 * f_gen + 2 * i + 1) * P + p] =
              static_cast<float>(spec[static_cast<std::size_t>(i)].imag());
        }
      }
    }
  });
  return out;
}

}  // namespace

nn::Tensor batch_spectrum(const nn::Tensor& traffic, long f_gen) {
  return spectrum_with_filter(traffic, f_gen, [](std::vector<dsp::Complex>&) {});
}

nn::Tensor masked_spectrum_target(const nn::Tensor& traffic, long f_gen, double q) {
  SG_CHECK(q > 0.0 && q < 1.0, "mask quantile must be in (0,1)");
  return spectrum_with_filter(traffic, f_gen, [q](std::vector<dsp::Complex>& spec) {
    spec = dsp::quantile_mask(spec, q);
  });
}

}  // namespace spectra::core
