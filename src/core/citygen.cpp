// Whole-city generation (§2.2.4): sliding-window patches, shared noise
// across all patches, per-pixel overlap averaging (Eq. 2), and k-multiple
// frequency expansion for horizons beyond the training length.
//
// Rows are finalized strip by strip through a RowSink in
// O(traffic_h x T x W) resident memory (DESIGN §6f, bench_megacity).
// Generator forwards fan out on the pool, but patches are sewn serially
// in window order, so output is bitwise independent of thread count.

#include <algorithm>
#include <limits>

#include "core/trainer.h"
#include "geo/strip_accumulator.h"
#include "nn/init.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace spectra::core {

namespace {

// The model contract is non-negative traffic: each row is clamped as it
// is emitted.
class ClampRowSink : public geo::RowSink {
 public:
  explicit ClampRowSink(geo::RowSink& inner) : inner_(inner) {}

  void consume_row(long row, const std::vector<double>& values) override {
    buf_.assign(values.begin(), values.end());
    for (double& v : buf_) v = std::clamp(v, 0.0, std::numeric_limits<double>::infinity());
    inner_.consume_row(row, buf_);
  }

 private:
  geo::RowSink& inner_;
  std::vector<double> buf_;
};

}  // namespace

geo::CityTensor SpectraGan::generate_city(const geo::ContextTensor& context, long steps,
                                          Rng& rng) const {
  SG_PROFILE_SCOPE("core/generate_city");
  geo::CityTensorSink sink(steps, context.height(), context.width());
  generate_city_streamed(context, steps, rng, sink);
  return sink.take();
}

void SpectraGan::generate_city_streamed(const geo::ContextTensor& context, long steps, Rng& rng,
                                        geo::RowSink& sink,
                                        geo::OverlapAggregation aggregation) const {
  SG_PROFILE_SCOPE("core/generate_city_streamed");
  ClampRowSink clamped(sink);
  geo::StripAccumulator accumulator(steps, context.height(), context.width(), clamped,
                                    aggregation);
  SG_CHECK(context.steps() == config_.context_channels,
           "context channel count does not match the model");
  SG_CHECK(steps > 0 && steps % config_.train_steps == 0,
           "steps must be a positive multiple of the training window (k-multiple expansion)");
  const long expand_k = steps / config_.train_steps;

  const geo::PatchSpec& spec = config_.patch;
  const std::vector<geo::PatchWindow> windows =
      geo::enumerate_windows(context.height(), context.width(), spec);

  // Shared noise across every patch of the city (§2.2.4): independent
  // noise plus overlap averaging would converge to the expected traffic
  // and oversmooth the maps.
  const nn::Tensor shared_noise = nn::init::gaussian(
      {1, config_.noise_channels, spec.traffic_h, spec.traffic_w}, 1.0f, rng);

  const long pixels = spec.traffic_h * spec.traffic_w;

  nn::InferenceGuard no_grad;
  constexpr std::size_t kChunk = 16;  // bound peak memory of the forward pass
  const std::size_t n_chunks = (windows.size() + kChunk - 1) / kChunk;

  // One chunk = one batched generator forward. Chunks are independent, so
  // groups of up to parallel_threads() chunks run concurrently (peak
  // memory stays bounded at threads x kChunk patches); the loop below
  // then sews every patch in window order on this thread, keeping the
  // city bitwise independent of thread count.
  const auto run_chunk = [&](std::size_t chunk) -> nn::Tensor {
    const std::size_t begin = chunk * kChunk;
    const std::size_t end = std::min(begin + kChunk, windows.size());
    const long n = static_cast<long>(end - begin);

    nn::Tensor ctx_batch({n, config_.context_channels, spec.context_h, spec.context_w});
    {
      SG_PROFILE_SCOPE("core/extract_patches");
      for (long b = 0; b < n; ++b) {
        const std::vector<float> patch = geo::extract_context_patch(
            context, windows[begin + static_cast<std::size_t>(b)], spec);
        std::copy(patch.begin(), patch.end(),
                  ctx_batch.data() + b * static_cast<long>(patch.size()));
      }
    }
    nn::Tensor noise_batch({n, config_.noise_channels, spec.traffic_h, spec.traffic_w});
    for (long b = 0; b < n; ++b) {
      std::copy(shared_noise.data(), shared_noise.data() + shared_noise.numel(),
                noise_batch.data() + b * shared_noise.numel());
    }

    const GeneratorOutput out = generator_forward(
        nn::Var::constant(std::move(ctx_batch)), nn::Var::constant(std::move(noise_batch)), steps,
        expand_k);
    return out.traffic.value();  // [n, steps, P]
  };

  const std::size_t group = std::max<std::size_t>(1, parallel_threads());
  for (std::size_t g0 = 0; g0 < n_chunks; g0 += group) {
    const std::size_t g1 = std::min(g0 + group, n_chunks);
    std::vector<nn::Tensor> chunk_traffic(g1 - g0);
    parallel_for(g1 - g0, /*grain=*/1, [&](std::size_t lo, std::size_t hi) {
      // InferenceGuard is thread-local: pool workers re-arm it so the
      // forward pass skips graph recording there too.
      nn::InferenceGuard worker_no_grad;
      for (std::size_t c = lo; c < hi; ++c) chunk_traffic[c] = run_chunk(g0 + c);
    });

    SG_PROFILE_SCOPE("core/sew");
    for (std::size_t c = 0; c < chunk_traffic.size(); ++c) {
      const nn::Tensor& traffic = chunk_traffic[c];
      const std::size_t begin = (g0 + c) * kChunk;
      const long n = traffic.dim(0);
      for (long b = 0; b < n; ++b) {
        // The [T, P] block of patch b is contiguous in the batched
        // output — hand it to the accumulator in place, no scratch copy.
        accumulator.add_patch(windows[begin + static_cast<std::size_t>(b)], spec,
                              traffic.data() + b * steps * pixels,
                              static_cast<std::size_t>(steps * pixels));
      }
    }
  }
  accumulator.finish();
}

}  // namespace spectra::core
