// Parallel-layer scaling study: the compute hot paths (conv2d planes,
// the per-pixel irfft bridge, masked-spectrum targets, whole-city
// generation) across thread counts. Run on a multi-core host to verify
// the speedup; on a single core the table shows the serial-parity /
// oversubscription baseline instead. The `pool.*` and `fft.*`
// instruments and the `core/irfft_bridge` profile node (README
// "Observability") carry the same numbers for end-to-end runs.

#include <cmath>

#include "bench_common.h"
#include "core/fourier_bridge.h"
#include "core/losses.h"
#include "core/trainer.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace spectra;

void BM_Conv2dForward(benchmark::State& state) {
  set_parallel_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  const nn::Var x = nn::Var::constant(nn::init::gaussian({8, 8, 32, 32}, 1.0f, rng));
  const nn::Var w = nn::Var::constant(nn::init::gaussian({16, 8, 3, 3}, 0.5f, rng));
  const nn::Var b = nn::Var::constant(nn::init::gaussian({16}, 0.5f, rng));
  nn::Conv2dSpec spec;
  spec.padding = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::conv2d(x, w, b, spec).value().data());
  }
  set_parallel_threads(0);
}
BENCHMARK(BM_Conv2dForward)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_IrfftBridge(benchmark::State& state) {
  set_parallel_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(11);
  const nn::Var spectrum = nn::Var::constant(nn::init::gaussian({16, 48, 64}, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::irfft_bridge(spectrum, 168, 1).value().data());
  }
  set_parallel_threads(0);
}
BENCHMARK(BM_IrfftBridge)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_MaskedSpectrumTarget(benchmark::State& state) {
  set_parallel_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(13);
  const nn::Tensor traffic = nn::init::gaussian({16, 168, 64}, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::masked_spectrum_target(traffic, 20, 0.8).data());
  }
  set_parallel_threads(0);
}
BENCHMARK(BM_MaskedSpectrumTarget)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void report() {
  // Whole-city generation wall clock per thread count on one trained
  // tiny model — the end-to-end number the tentpole targets.
  core::SpectraGanConfig config = core::default_config();
  config.iterations = 1;  // config must validate; train() is never called
  core::SpectraGan model(config, 3);
  geo::ContextTensor context(config.context_channels, 24, 24);
  Rng fill(5);
  for (double& v : context.values()) v = fill.uniform(0, 1);

  CsvWriter table({"threads", "generate_city seconds", "speedup vs 1 thread"});
  double serial_seconds = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    set_parallel_threads(threads);
    Rng rng(21);
    Stopwatch watch;
    const geo::CityTensor city = model.generate_city(context, config.train_steps, rng);
    const double seconds = watch.seconds();
    benchmark::DoNotOptimize(city.values().data());
    if (threads == 1) serial_seconds = seconds;
    table.add_row({std::to_string(threads), CsvWriter::num(seconds, 4),
                   CsvWriter::num(serial_seconds / seconds, 2)});
  }
  set_parallel_threads(0);
  eval::emit_table(table, "Parallel scaling — generate_city wall clock by SPECTRA_THREADS",
                   "parallel_scaling.csv");
}

}  // namespace

SG_BENCH_MAIN(report)
