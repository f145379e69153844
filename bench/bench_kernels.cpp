// Kernel-level throughput bench (DESIGN.md §6c): GEMM / conv2d / LSTM /
// FFT at the shapes the SpectraGAN trainer and generator actually run,
// each measured against the pre-GEMM direct kernel or the scalar
// reference (tests/reference) so the speedup is computed within one run
// on one machine. Emits BENCH_KERNELS.json (override with
// SPECTRA_BENCH_OUT) — the seed point of the kernel perf trajectory; CI
// re-runs this at reduced iterations and fails if any kernel's speedup
// regresses >20% against the committed baseline
// (scripts/check_bench_kernels.py).
//
// Every row times its reference and new kernel as interleaved pairs of
// samples, and its speedup is the median of the per-pair ratios: the two
// sides of a ratio run back to back, at whatever speed the host runs
// then.
//
// Knobs: SPECTRA_BENCH_ITERS (sample pairs per kernel, default 200; a
// sample batches sub-50 µs calls),
// SPECTRA_THREADS (kernels are measured at 1 thread — the single-thread
// speedup is the contract; the parallel layer is bench_parallel_scaling's
// subject).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/time_generator.h"
#include "dsp/fft.h"
#include "nn/autograd.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/init.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "reference/fft_reference.h"
#include "reference/lstm_reference.h"
#include "util/env.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace spectra;

struct KernelResult {
  std::string name;
  std::string shape;
  double flops_per_call = 0.0;
  double seconds_ref = 0.0;  // median per-call time of the reference samples
  double seconds_new = 0.0;  // median per-call time of the new samples
  double speedup = 0.0;      // median of the per-pair ratios ref / new
  double gflops(double seconds) const {
    return seconds > 0.0 ? flops_per_call / seconds * 1e-9 : 0.0;
  }
};

long g_iters = 200;

// Shortest timed sample: a call faster than this is repeated in batches
// that last at least this long, so clock and timer noise cannot decide a
// microsecond-scale row.
constexpr double kMinSampleSeconds = 50e-6;

// Warm up twice (populates workspace arenas and caches), then size a
// batch by doubling until it lasts kMinSampleSeconds (one call for every
// kernel at least that slow).
template <typename Fn>
long sample_batch(Fn& fn) {
  fn();
  fn();
  long batch = 1;
  for (;;) {
    Stopwatch probe;
    for (long i = 0; i < batch; ++i) fn();
    if (probe.seconds() >= kMinSampleSeconds) break;
    batch *= 2;
  }
  return batch;
}

// Per-call seconds of one sample of `batch` calls.
template <typename Fn>
double time_sample(Fn& fn, long batch) {
  Stopwatch watch;
  for (long i = 0; i < batch; ++i) fn();
  return watch.seconds() / static_cast<double>(batch);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// `g_iters` pairs of one reference and one new sample, back to back,
// alternating which runs first. The host's single-thread speed switches
// between levels in stretches of seconds, so only the two halves of one
// pair are sure to share a level: the row's speedup is the median of
// the per-pair ratios, and its times are each side's median sample.
template <typename Ref, typename New>
void time_pairs(KernelResult& r, Ref&& ref, New&& fresh) {
  const long ref_batch = sample_batch(ref);
  const long new_batch = sample_batch(fresh);
  std::vector<double> ref_s, new_s, ratios;
  for (long i = 0; i < g_iters; ++i) {
    double t_ref = 0.0;
    double t_new = 0.0;
    if (i % 2 == 0) {
      t_ref = time_sample(ref, ref_batch);
      t_new = time_sample(fresh, new_batch);
    } else {
      t_new = time_sample(fresh, new_batch);
      t_ref = time_sample(ref, ref_batch);
    }
    ref_s.push_back(t_ref);
    new_s.push_back(t_new);
    ratios.push_back(t_new > 0.0 ? t_ref / t_new : 0.0);
  }
  r.seconds_ref = median(ref_s);
  r.seconds_new = median(new_s);
  r.speedup = median(ratios);
}

// The pre-PR matmul kernel, verbatim: serial triple loop with the
// zero-skip branch (src/nn/ops.cpp before the GEMM routing).
void naive_matmul(long m, long k, long n, const float* pa, const float* pb, float* py) {
  for (long i = 0; i < m * n; ++i) py[i] = 0.0f;
  for (long i = 0; i < m; ++i) {
    for (long p = 0; p < k; ++p) {
      const float av = pa[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = pb + p * n;
      float* yrow = py + i * n;
      for (long j = 0; j < n; ++j) yrow[j] += av * brow[j];
    }
  }
}

KernelResult bench_matmul(const std::string& name, long m, long k, long n) {
  Rng rng(5);
  const nn::Tensor a = nn::init::gaussian({m, k}, 1.0f, rng);
  const nn::Tensor b = nn::init::gaussian({k, n}, 1.0f, rng);
  nn::Tensor y({m, n});

  KernelResult r;
  r.name = name;
  r.shape = "[" + std::to_string(m) + "x" + std::to_string(k) + "]*[" + std::to_string(k) + "x" +
            std::to_string(n) + "]";
  r.flops_per_call = 2.0 * static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n);
  time_pairs(
      r, [&] { naive_matmul(m, k, n, a.data(), b.data(), y.data()); },
      [&] {
        nn::gemm::sgemm(nn::gemm::Trans::kNo, nn::gemm::Trans::kNo, m, n, k, a.data(), k, b.data(),
                        n, y.data(), n, /*accumulate=*/false);
      });
  return r;
}

KernelResult bench_conv_forward(const std::string& name, long N, long C, long H, long W, long O,
                                long kernel, long stride, long padding) {
  Rng rng(7);
  const nn::Var x = nn::Var::constant(nn::init::gaussian({N, C, H, W}, 1.0f, rng));
  const nn::Var w = nn::Var::constant(nn::init::gaussian({O, C, kernel, kernel}, 0.5f, rng));
  const nn::Var b = nn::Var::constant(nn::init::gaussian({O}, 0.5f, rng));
  const long Ho = nn::conv2d_out_extent(H, kernel, stride, padding);
  const long Wo = nn::conv2d_out_extent(W, kernel, stride, padding);

  KernelResult r;
  r.name = name;
  r.shape = "x[" + std::to_string(N) + "," + std::to_string(C) + "," + std::to_string(H) + "," +
            std::to_string(W) + "] w[" + std::to_string(O) + "," + std::to_string(C) + "," +
            std::to_string(kernel) + "," + std::to_string(kernel) + "] s" +
            std::to_string(stride) + " p" + std::to_string(padding);
  r.flops_per_call = 2.0 * static_cast<double>(N * O * C * kernel * kernel * Ho * Wo);
  nn::InferenceGuard guard;  // forward only: no graph bookkeeping in the timing
  nn::Conv2dSpec direct{.stride = stride, .padding = padding, .impl = nn::Conv2dImpl::kDirect};
  nn::Conv2dSpec lowered{.stride = stride, .padding = padding, .impl = nn::Conv2dImpl::kIm2col};
  time_pairs(
      r, [&] { nn::conv2d(x, w, b, direct); }, [&] { nn::conv2d(x, w, b, lowered); });
  return r;
}

KernelResult bench_conv_train_step(const std::string& name, long N, long C, long H, long W, long O,
                                   long kernel, long stride, long padding) {
  Rng rng(9);
  nn::Var x = nn::Var::leaf(nn::init::gaussian({N, C, H, W}, 1.0f, rng));
  nn::Var w = nn::Var::leaf(nn::init::gaussian({O, C, kernel, kernel}, 0.5f, rng));
  nn::Var b = nn::Var::leaf(nn::init::gaussian({O}, 0.5f, rng));
  const long Ho = nn::conv2d_out_extent(H, kernel, stride, padding);
  const long Wo = nn::conv2d_out_extent(W, kernel, stride, padding);

  KernelResult r;
  r.name = name;
  r.shape = "fwd+bwd x[" + std::to_string(N) + "," + std::to_string(C) + "," + std::to_string(H) +
            "," + std::to_string(W) + "] w[" + std::to_string(O) + ",...," +
            std::to_string(kernel) + "]";
  // forward + dx + dw ≈ 3× the forward contraction.
  r.flops_per_call = 3.0 * 2.0 * static_cast<double>(N * O * C * kernel * kernel * Ho * Wo);
  auto run = [&](nn::Conv2dImpl impl) {
    nn::Conv2dSpec spec{.stride = stride, .padding = padding, .impl = impl};
    x.zero_grad(), w.zero_grad(), b.zero_grad();
    nn::sum(nn::conv2d(x, w, b, spec)).backward();
  };
  time_pairs(
      r, [&] { run(nn::Conv2dImpl::kDirect); }, [&] { run(nn::Conv2dImpl::kIm2col); });
  return r;
}

// Forward + backward flops of a recurrent step, ≈ 3× the forward
// contractions (input projection, recurrence, head).
double lstm_train_flops(long steps, long batch, long in, long hidden, long out) {
  return 3.0 * static_cast<double>(steps) * 2.0 *
         static_cast<double>(batch * (in * 4 * hidden + hidden * 4 * hidden + hidden * out));
}

std::string lstm_shape(long steps, long batch, long in, long hidden, long out) {
  return "T=" + std::to_string(steps) + " B=" + std::to_string(batch) +
         " in=" + std::to_string(in) + " H=" + std::to_string(hidden) +
         " out=" + std::to_string(out);
}

// G^t's training step: the LSTM sequence op's generation form, forward
// + backward, against the per-step graph it replaced (tests/reference),
// on the same parameters, conditioning and clock.
KernelResult bench_lstm_train_gt(const std::string& name, long T, long B, long cond_dim,
                                 long hidden, long out) {
  const long in = cond_dim + core::kTimeFeatures;
  Rng model_rng(13);
  const nn::Lstm lstm(in, hidden, out, model_rng);
  const std::vector<nn::Var> params = lstm.parameters();
  Rng rng(15);
  nn::Var cond = nn::Var::leaf(nn::init::gaussian({B, cond_dim}, 1.0f, rng));
  const nn::Tensor clock = core::clock_table(T, 24);

  KernelResult r;
  r.name = name;
  r.shape = "fwd+bwd " + lstm_shape(T, B, in, hidden, out);
  r.flops_per_call = lstm_train_flops(T, B, in, hidden, out);
  auto train = [&](const nn::Var& y) {
    nn::sum(y).backward();
    cond.zero_grad();
    lstm.zero_grad();
  };
  time_pairs(
      r,
      [&] {
        train(reference::lstm_generate_graph(params, nn::Activation::kNone, cond, clock));
      },
      [&] { train(lstm.generate(cond, clock)); });
  return r;
}

// R^t's training step: the critic form over a [B, T, S] series read at
// `stride`, forward + backward, against the per-step critic graph.
KernelResult bench_lstm_train_rt(const std::string& name, long T, long stride, long B, long S,
                                 long cond_dim, long hidden, long out) {
  const long in = S + cond_dim;
  const long steps = (T + stride - 1) / stride;
  Rng model_rng(17);
  const nn::Lstm lstm(in, hidden, out, model_rng);
  const std::vector<nn::Var> params = lstm.parameters();
  Rng rng(19);
  nn::Var series = nn::Var::leaf(nn::init::gaussian({B, T, S}, 1.0f, rng));
  nn::Var cond = nn::Var::leaf(nn::init::gaussian({B, cond_dim}, 1.0f, rng));

  KernelResult r;
  r.name = name;
  r.shape = "fwd+bwd " + lstm_shape(T, B, in, hidden, out) + " stride=" + std::to_string(stride);
  r.flops_per_call = lstm_train_flops(steps, B, in, hidden, out);
  auto train = [&](const nn::Var& y) {
    nn::sum(y).backward();
    series.zero_grad();
    cond.zero_grad();
    lstm.zero_grad();
  };
  time_pairs(
      r, [&] { train(reference::lstm_critique_graph(params, series, cond, stride)); },
      [&] { train(lstm.critique(series, cond, stride)); });
  return r;
}

std::vector<double> random_real_signal(long n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.uniform(-1, 1);
  return x;
}

// Real-input transform at a power-of-two length: the half-spectrum fast
// path vs the scalar reference's Bluestein evaluation of the same rfft
// (tests/reference, so a faster engine cannot shrink the ratio).
KernelResult bench_rfft_pow2(const std::string& name, long n) {
  const std::vector<double> x = random_real_signal(n, 31);
  KernelResult r;
  r.name = name;
  r.shape = "rfft N=" + std::to_string(n);
  const double nd = static_cast<double>(n);
  r.flops_per_call = 5.0 * nd * std::log2(nd);
  time_pairs(r, [&] { reference::rfft_bluestein(x); }, [&] { dsp::rfft(x); });
  return r;
}

// The irfft bridge's transform: one batch row of `lanes` pixels at
// length n whose spectrum holds `bins` nonzero bins at stride `stride`
// (spectrum_bins at the k-multiple expansion) and +0 elsewhere, as one
// lane-batched irfft against the scalar reference per lane.
KernelResult bench_irfft_bridge(const std::string& name, long n, long lanes, long bins,
                                long stride) {
  const long half = n / 2 + 1;
  Rng rng(37);
  std::vector<std::vector<dsp::Complex>> spectra(static_cast<std::size_t>(lanes));
  std::vector<double> re(static_cast<std::size_t>(half * lanes), 0.0), im(re.size(), 0.0);
  for (long l = 0; l < lanes; ++l) {
    std::vector<dsp::Complex>& spec = spectra[static_cast<std::size_t>(l)];
    spec.assign(static_cast<std::size_t>(half), dsp::Complex(0.0, 0.0));
    for (long i = 0; i < bins; ++i) {
      const auto at = static_cast<std::size_t>(i * stride);
      spec[at] = dsp::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
      re[at * static_cast<std::size_t>(lanes) + static_cast<std::size_t>(l)] = spec[at].real();
      im[at * static_cast<std::size_t>(lanes) + static_cast<std::size_t>(l)] = spec[at].imag();
    }
  }
  std::vector<double> x(static_cast<std::size_t>(n * lanes));
  KernelResult r;
  r.name = name;
  r.shape = "irfft N=" + std::to_string(n) + " x" + std::to_string(lanes) + " lanes, " +
            std::to_string(bins) + " bins stride " + std::to_string(stride);
  const double nd = static_cast<double>(n);
  r.flops_per_call = static_cast<double>(lanes) * 5.0 * nd * std::log2(nd);
  time_pairs(
      r,
      [&] {
        for (const std::vector<dsp::Complex>& spec : spectra) reference::irfft(spec, n);
      },
      [&] { dsp::irfft_lanes(re.data(), im.data(), n, lanes, x.data()); });
  return r;
}

// The spectrum targets' transform: one lane-batched rfft of `lanes`
// series against the scalar reference per lane.
KernelResult bench_rfft_targets(const std::string& name, long n, long lanes) {
  std::vector<std::vector<double>> series;
  std::vector<double> x(static_cast<std::size_t>(n * lanes));
  for (long l = 0; l < lanes; ++l) {
    series.push_back(random_real_signal(n, 41 + static_cast<std::uint64_t>(l)));
    for (long k = 0; k < n; ++k) {
      x[static_cast<std::size_t>(k * lanes + l)] = series.back()[static_cast<std::size_t>(k)];
    }
  }
  std::vector<double> re(static_cast<std::size_t>((n / 2 + 1) * lanes)), im(re.size());
  KernelResult r;
  r.name = name;
  r.shape = "rfft N=" + std::to_string(n) + " x" + std::to_string(lanes) + " lanes";
  const double nd = static_cast<double>(n);
  r.flops_per_call = static_cast<double>(lanes) * 5.0 * nd * std::log2(nd);
  time_pairs(
      r,
      [&] {
        for (const std::vector<double>& s : series) reference::rfft(s);
      },
      [&] { dsp::rfft_lanes(x.data(), n, lanes, re.data(), im.data()); });
  return r;
}

void emit_json(const std::vector<KernelResult>& results, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    SG_LOG_ERROR << "bench_kernels: cannot open " << path;
    return;
  }
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"threads\": 1,\n  \"iters\": %ld,\n  \"kernels\": [\n",
               g_iters);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", \"flops_per_call\": %.0f,\n"
                 "     \"seconds_ref\": %.9f, \"seconds_new\": %.9f,\n"
                 "     \"gflops_ref\": %.3f, \"gflops_new\": %.3f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.shape.c_str(), r.flops_per_call, r.seconds_ref, r.seconds_new,
                 r.gflops(r.seconds_ref), r.gflops(r.seconds_new), r.speedup,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  g_iters = env_long("SPECTRA_BENCH_ITERS", 200);
  // Single-thread contract: the JSON records per-core kernel quality;
  // thread scaling is bench_parallel_scaling's subject.
  set_parallel_threads(1);

  std::vector<KernelResult> results;
  // matmul at trainer shapes: the batched LSTM input projection
  // (T·B=1008 rows), the per-step hidden→gates product, and the
  // spectrum/time discriminator MLP layer.
  results.push_back(bench_matmul("matmul_lstm_xproj_batched", 1008, 28, 96));
  results.push_back(bench_matmul("matmul_lstm_gate_h", 6, 24, 96));
  results.push_back(bench_matmul("matmul_disc_mlp", 6, 128, 48));
  results.push_back(bench_matmul("matmul_square_256", 256, 256, 256));
  // conv2d at trainer shapes: encoder conv1/conv2 and the spectrum
  // generator output conv (§2.2 geometry, default config).
  results.push_back(bench_conv_forward("conv_fwd_encoder1", 6, 27, 8, 8, 24, 3, 1, 1));
  results.push_back(bench_conv_forward("conv_fwd_encoder2_s2", 6, 24, 8, 8, 16, 3, 2, 1));
  results.push_back(bench_conv_forward("conv_fwd_spectrum_out", 6, 32, 4, 4, 56, 3, 1, 1));
  results.push_back(bench_conv_train_step("conv_train_encoder1", 6, 27, 8, 8, 24, 3, 1, 1));
  // Recurrent training steps through the LSTM sequence op against the
  // per-step graph: G^t (generation form, T = 168, B = 6, 24 + 4 inputs,
  // 16 pixels out) and R^t (critic form at stride 2 over 16 pixels).
  results.push_back(bench_lstm_train_gt("lstm_train_gt", 168, 6, 24, 24, 16));
  results.push_back(bench_lstm_train_rt("lstm_train_rt", 168, 2, 6, 16, 24, 24, 1));
  // Real-input FFT: the 512-point pow2 fast path against Bluestein, and
  // the lane-batched transforms of the irfft bridge (T = 504, k = 3,
  // 28 bins) and of the spectrum targets (T = 168) at 16 pixels.
  results.push_back(bench_rfft_pow2("rfft_pow2", 512));
  results.push_back(bench_irfft_bridge("irfft_bridge_504", 504, 16, 28, 3));
  results.push_back(bench_rfft_targets("rfft_targets_168", 168, 16));

  std::printf("%-28s %-14s %-14s %-10s %-10s %s\n", "kernel", "ref s/call", "new s/call",
              "ref GF/s", "new GF/s", "speedup");
  for (const KernelResult& r : results) {
    std::printf("%-28s %-14.3e %-14.3e %-10.2f %-10.2f %.2fx\n", r.name.c_str(), r.seconds_ref,
                r.seconds_new, r.gflops(r.seconds_ref), r.gflops(r.seconds_new), r.speedup);
  }

  emit_json(results, env_string("SPECTRA_BENCH_OUT", "BENCH_KERNELS.json"));
  set_parallel_threads(0);
  spectra::bench::bench_report("bench_kernels");
  return 0;
}
