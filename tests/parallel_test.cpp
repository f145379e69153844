// The parallel execution layer: results must be bitwise identical for
// any thread count (disjoint writes, no RNG in parallel regions), nested
// parallel_for must run inline instead of deadlocking on its own queue,
// and exceptions must propagate out of chunked tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/fourier_bridge.h"
#include "core/losses.h"
#include "core/time_generator.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "dsp/fft.h"
#include "geo/patching.h"
#include "nn/conv.h"
#include "nn/init.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "train/checkpoint.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace spectra {
namespace {

// Scoped override of the effective thread count; restores the
// SPECTRA_THREADS / hardware default on destruction.
struct ThreadsOverride {
  explicit ThreadsOverride(std::size_t n) { set_parallel_threads(n); }
  ~ThreadsOverride() { set_parallel_threads(0); }
};

void expect_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (long i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at flat index " << i;
  }
}

// --- bitwise determinism across thread counts ---

struct ConvRun {
  nn::Tensor y, gx, gw, gb;
};

ConvRun run_conv(std::size_t threads) {
  ThreadsOverride guard(threads);
  Rng rng(123);
  nn::Var x = nn::Var::leaf(nn::init::gaussian({2, 3, 9, 7}, 1.0f, rng));
  nn::Var w = nn::Var::leaf(nn::init::gaussian({4, 3, 3, 3}, 0.5f, rng));
  nn::Var b = nn::Var::leaf(nn::init::gaussian({4}, 0.5f, rng));
  nn::Conv2dSpec spec;
  spec.stride = 2;
  spec.padding = 1;
  nn::Var y = nn::conv2d(x, w, b, spec);
  nn::sum(y).backward();
  return {y.value(), x.grad(), w.grad(), b.grad()};
}

TEST(ParallelDeterminismTest, Conv2dBitwiseIdenticalAcrossThreadCounts) {
  const ConvRun serial = run_conv(1);
  const ConvRun parallel = run_conv(8);
  expect_bitwise_equal(serial.y, parallel.y, "conv2d forward");
  expect_bitwise_equal(serial.gx, parallel.gx, "conv2d grad input");
  expect_bitwise_equal(serial.gw, parallel.gw, "conv2d grad weight");
  expect_bitwise_equal(serial.gb, parallel.gb, "conv2d grad bias");
}

// The GEMM-lowered conv path: samples and row panels move between
// threads, outputs must not.
ConvRun run_conv_gemm(std::size_t threads) {
  ThreadsOverride guard(threads);
  Rng rng(124);
  nn::Var x = nn::Var::leaf(nn::init::gaussian({3, 4, 8, 8}, 1.0f, rng));
  nn::Var w = nn::Var::leaf(nn::init::gaussian({6, 4, 3, 3}, 0.5f, rng));
  nn::Var b = nn::Var::leaf(nn::init::gaussian({6}, 0.5f, rng));
  nn::Conv2dSpec spec{.stride = 1, .padding = 1, .impl = nn::Conv2dImpl::kIm2col};
  nn::Var y = nn::conv2d(x, w, b, spec);
  nn::sum(y).backward();
  return {y.value(), x.grad(), w.grad(), b.grad()};
}

TEST(ParallelDeterminismTest, Im2colConvBitwiseIdenticalAcrossThreadCounts) {
  const ConvRun serial = run_conv_gemm(1);
  const ConvRun parallel = run_conv_gemm(8);
  expect_bitwise_equal(serial.y, parallel.y, "im2col conv forward");
  expect_bitwise_equal(serial.gx, parallel.gx, "im2col conv grad input");
  expect_bitwise_equal(serial.gw, parallel.gw, "im2col conv grad weight");
  expect_bitwise_equal(serial.gb, parallel.gb, "im2col conv grad bias");
}

// matmul and both backward GEMM products (NT/TN) plus the add_rowvec
// column-sliced bias reduction, across thread counts.
struct LinearRun {
  nn::Tensor y, gx, gw, gb;
};

LinearRun run_linear(std::size_t threads) {
  ThreadsOverride guard(threads);
  Rng rng(67);
  nn::Var x = nn::Var::leaf(nn::init::gaussian({37, 29}, 1.0f, rng));
  nn::Var w = nn::Var::leaf(nn::init::gaussian({29, 43}, 1.0f, rng));
  nn::Var b = nn::Var::leaf(nn::init::gaussian({43}, 1.0f, rng));
  nn::Var y = nn::linear(x, w, b);
  nn::sum(y).backward();
  return {y.value(), x.grad(), w.grad(), b.grad()};
}

TEST(ParallelDeterminismTest, LinearBitwiseIdenticalAcrossThreadCounts) {
  const LinearRun serial = run_linear(1);
  const LinearRun parallel = run_linear(8);
  expect_bitwise_equal(serial.y, parallel.y, "linear forward");
  expect_bitwise_equal(serial.gx, parallel.gx, "linear grad input (NT gemm)");
  expect_bitwise_equal(serial.gw, parallel.gw, "linear grad weight (TN gemm)");
  expect_bitwise_equal(serial.gb, parallel.gb, "linear grad bias (column slices)");
}

// The LSTM sequence op, forward and backward, with the generation form
// feeding the critic form: its GEMMs split only M across threads and the
// BPTT between them runs on the calling thread.
std::vector<nn::Tensor> run_lstm(std::size_t threads) {
  ThreadsOverride guard(threads);
  Rng model_rng(91);
  const long cond_dim = 24;
  const nn::Lstm generator(cond_dim + core::kTimeFeatures, 24, 16, model_rng,
                           nn::Activation::kSigmoid);
  const nn::Lstm critic(16 + cond_dim, 24, 1, model_rng);
  Rng rng(92);
  nn::Var cond = nn::Var::leaf(nn::init::gaussian({17, cond_dim}, 1.0f, rng));
  const nn::Var series = generator.generate(cond, core::clock_table(168, 24));
  const nn::Var logits = critic.critique(series, cond, 2);
  nn::sum(logits).backward();
  std::vector<nn::Tensor> values{series.value(), logits.value(), cond.grad()};
  for (const nn::Module* m : {&generator, &critic}) {
    for (const nn::Var& p : m->parameters()) values.push_back(p.grad());
  }
  return values;
}

TEST(ParallelDeterminismTest, LstmSequenceBitwiseIdenticalAcrossThreadCounts) {
  const std::vector<nn::Tensor> serial = run_lstm(1);
  const std::vector<nn::Tensor> parallel = run_lstm(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_bitwise_equal(serial[i], parallel[i], "lstm output or gradient");
  }
}

// The generation form under InferenceGuard: its three GEMMs (the row
// projection, the per-step recurrence and the head over all B·T rows)
// split only M across threads, so the sequence is thread-count free.
nn::Tensor run_lstm_infer(std::size_t threads) {
  ThreadsOverride guard(threads);
  Rng model_rng(93);
  const long cond_dim = 24;
  nn::Lstm lstm(cond_dim + core::kTimeFeatures, 24, 16, model_rng, nn::Activation::kNone);
  Rng rng(94);
  const nn::InferenceGuard no_grad;
  return lstm
      .generate(nn::Var::constant(nn::init::gaussian({17, cond_dim}, 1.0f, rng)),
                core::clock_table(168, 24))
      .value();
}

TEST(ParallelDeterminismTest, LstmInferBitwiseIdenticalAcrossThreadCounts) {
  expect_bitwise_equal(run_lstm_infer(1), run_lstm_infer(8), "lstm infer output");
}

// Scoped override of the SIMD dispatch level.
struct SimdOverride {
  explicit SimdOverride(SimdLevel level) : prev(active_simd_level()) {
    set_simd_level(level);
  }
  ~SimdOverride() { set_simd_level(prev); }
  SimdLevel prev;
};

// The 1-vs-8-thread contract must hold at every dispatch level this
// build and CPU support, not just the default: lane width changes which
// C columns share a register, never the per-element reduction order.
TEST(ParallelDeterminismTest, LinearBitwiseIdenticalAcrossThreadCountsAtEverySimdLevel) {
  for (const SimdLevel level :
       {SimdLevel::kGeneric, SimdLevel::kAvx2, SimdLevel::kAvx512, SimdLevel::kNeon}) {
    if (!simd_level_available(level)) continue;
    SimdOverride guard(level);
    const LinearRun serial = run_linear(1);
    const LinearRun parallel = run_linear(8);
    const char* name = simd_level_name(level);
    expect_bitwise_equal(serial.y, parallel.y, name);
    expect_bitwise_equal(serial.gx, parallel.gx, name);
    expect_bitwise_equal(serial.gw, parallel.gw, name);
    expect_bitwise_equal(serial.gb, parallel.gb, name);
  }
}

// Concurrent rfft/irfft calls from pool workers: the per-thread Bluestein
// scratch and the shared rfft/Bluestein plan caches must not let results
// depend on which worker ran which row. Mixes fast-path (64) and
// fallback (168) lengths in one batch.
std::vector<std::vector<double>> run_rfft_batch(std::size_t threads) {
  ThreadsOverride guard(threads);
  std::vector<std::vector<double>> rows;
  for (long r = 0; r < 24; ++r) {
    const long n = (r % 2 == 0) ? 64 : 168;
    Rng rng(static_cast<std::uint64_t>(1000 + r));
    std::vector<double> x(static_cast<std::size_t>(n));
    for (double& v : x) v = rng.uniform(-1, 1);
    rows.push_back(std::move(x));
  }
  std::vector<std::vector<double>> out(rows.size());
  parallel_for(rows.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      out[r] = dsp::irfft(dsp::rfft(rows[r]), static_cast<long>(rows[r].size()));
    }
  });
  return out;
}

TEST(ParallelDeterminismTest, RfftRoundTripBitwiseIdenticalAcrossThreadCounts) {
  const std::vector<std::vector<double>> serial = run_rfft_batch(1);
  const std::vector<std::vector<double>> parallel = run_rfft_batch(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    ASSERT_EQ(serial[r].size(), parallel[r].size());
    for (std::size_t i = 0; i < serial[r].size(); ++i) {
      ASSERT_EQ(serial[r][i], parallel[r][i])
          << "rfft round trip diverges at row " << r << " index " << i;
    }
  }
}

struct BridgeRun {
  nn::Tensor traffic, grad;
};

BridgeRun run_bridge(std::size_t threads) {
  ThreadsOverride guard(threads);
  Rng rng(321);
  nn::Var spectrum = nn::Var::leaf(nn::init::gaussian({3, 8, 6}, 1.0f, rng));
  nn::Var traffic = core::irfft_bridge(spectrum, /*base_steps=*/24, /*expand_k=*/2);
  nn::sum(traffic).backward();
  return {traffic.value(), spectrum.grad()};
}

TEST(ParallelDeterminismTest, IrfftBridgeBitwiseIdenticalAcrossThreadCounts) {
  const BridgeRun serial = run_bridge(1);
  const BridgeRun parallel = run_bridge(8);
  expect_bitwise_equal(serial.traffic, parallel.traffic, "irfft_bridge forward");
  expect_bitwise_equal(serial.grad, parallel.grad, "irfft_bridge backward");
}

TEST(ParallelDeterminismTest, SpectrumTargetsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(55);
  const nn::Tensor traffic = nn::init::gaussian({2, 24, 9}, 1.0f, rng);
  nn::Tensor plain_serial, masked_serial;
  {
    ThreadsOverride guard(1);
    plain_serial = core::batch_spectrum(traffic, 8);
    masked_serial = core::masked_spectrum_target(traffic, 8, 0.6);
  }
  ThreadsOverride guard(8);
  expect_bitwise_equal(plain_serial, core::batch_spectrum(traffic, 8), "batch_spectrum");
  expect_bitwise_equal(masked_serial, core::masked_spectrum_target(traffic, 8, 0.6),
                       "masked_spectrum_target");
}

core::SpectraGanConfig tiny_config() {
  core::SpectraGanConfig config;
  config.train_steps = 24;
  config.spectrum_bins = 8;
  config.hidden_channels = 6;
  config.encoder_mid_channels = 8;
  config.spectrum_mid_channels = 8;
  config.lstm_hidden = 8;
  config.cond_dim = 8;
  config.disc_mlp_hidden = 8;
  config.noise_channels = 2;
  config.iterations = 2;
  config.batch = 2;
  return config;
}

geo::CityTensor run_citygen(std::size_t threads) {
  ThreadsOverride guard(threads);
  const core::SpectraGanConfig config = tiny_config();
  core::SpectraGan model(config, /*seed=*/16);
  geo::ContextTensor context(config.context_channels, 12, 12);
  Rng rng_fill(17);
  for (double& v : context.values()) v = rng_fill.uniform(0, 1);
  Rng rng(21);
  return model.generate_city(context, 2 * config.train_steps, rng);
}

TEST(ParallelDeterminismTest, GenerateCityBitwiseIdenticalAcrossThreadCounts) {
  const geo::CityTensor serial = run_citygen(1);
  const geo::CityTensor parallel = run_citygen(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (long i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "generate_city diverges at flat index " << i;
  }
}

// The streamed city at 24x24, which spans several forward chunks, for
// both aggregation modes: the chunks fan out on the pool, and the serial
// window-order sewing keeps the output independent of the thread count.
geo::CityTensor run_citygen_24(std::size_t threads, geo::OverlapAggregation aggregation) {
  ThreadsOverride guard(threads);
  const core::SpectraGanConfig config = tiny_config();
  core::SpectraGan model(config, /*seed=*/16);
  geo::ContextTensor context(config.context_channels, 24, 24);
  Rng rng_fill(17);
  for (double& v : context.values()) v = rng_fill.uniform(0, 1);
  Rng rng(21);
  const long steps = config.train_steps;
  geo::CityTensorSink sink(steps, 24, 24);
  model.generate_city_streamed(context, steps, rng, sink, aggregation);
  return sink.take();
}

TEST(ParallelDeterminismTest, StreamedCityBitwiseIdenticalAcrossThreadCounts) {
  for (const geo::OverlapAggregation aggregation :
       {geo::OverlapAggregation::kMean, geo::OverlapAggregation::kMedian}) {
    const geo::CityTensor serial = run_citygen_24(1, aggregation);
    // Two threads is the benchmark's citygen setting: the caller's chunk
    // and a worker's both run their nested regions inline.
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const geo::CityTensor parallel = run_citygen_24(threads, aggregation);
      ASSERT_EQ(parallel.size(), serial.size());
      for (long i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(parallel[i], serial[i])
            << "streamed city diverges at flat index " << i << " with " << threads
            << " threads, aggregation "
            << (aggregation == geo::OverlapAggregation::kMean ? "mean" : "median");
      }
    }
  }
}

// Two iterations of SpectraGAN training at the default shapes (T = 168,
// B = 6): the loss histories and every final parameter must not depend
// on the thread count.
struct TrainRun {
  std::vector<double> losses;
  std::vector<nn::Tensor> params;
};

TrainRun run_training(std::size_t threads) {
  ThreadsOverride guard(threads);
  data::DatasetConfig dc;
  dc.weeks = 1;
  const data::CountryDataset dataset = data::make_country2(dc);
  core::SpectraGanConfig config;
  config.iterations = 2;
  core::SpectraGan model(config, /*seed=*/41);
  const data::PatchSampler sampler(dataset, {0, 1}, config.patch, 0, config.train_steps);
  Rng rng(42);
  const core::TrainStats stats = model.train(sampler, rng, train::CheckpointOptions{});
  TrainRun run;
  for (const std::vector<double>* history :
       {&stats.d_loss_history, &stats.g_adv_loss_history, &stats.l1_loss_history}) {
    run.losses.insert(run.losses.end(), history->begin(), history->end());
  }
  for (const std::vector<nn::Var>& params :
       {model.generator_parameters(), model.discriminator_parameters()}) {
    for (const nn::Var& p : params) run.params.push_back(p.value());
  }
  return run;
}

TEST(ParallelDeterminismTest, TrainingBitwiseIdenticalAcrossThreadCounts) {
  const TrainRun serial = run_training(1);
  const TrainRun parallel = run_training(8);
  ASSERT_EQ(serial.losses.size(), parallel.losses.size());
  for (std::size_t i = 0; i < serial.losses.size(); ++i) {
    ASSERT_EQ(serial.losses[i], parallel.losses[i]) << "loss history entry " << i;
  }
  ASSERT_EQ(serial.params.size(), parallel.params.size());
  for (std::size_t i = 0; i < serial.params.size(); ++i) {
    expect_bitwise_equal(serial.params[i], parallel.params[i], "trained parameter");
  }
}

// --- chunking, nesting, and failure behaviour of the layer itself ---

TEST(ParallelForTest, CoversRangeWithDisjointChunks) {
  ThreadsOverride guard(8);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(1000, 1, [&](std::size_t begin, std::size_t end) {
    std::lock_guard lock(mu);
    chunks.push_back({begin, end});
  });
  // O(threads) chunks, not one task per index.
  EXPECT_LE(chunks.size(), 8u);
  std::sort(chunks.begin(), chunks.end());
  std::size_t expect_begin = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_GT(end, begin);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, 1000u);
}

TEST(ParallelForTest, GrainForcesInlineExecutionForSmallRanges) {
  ThreadsOverride guard(8);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(10, 100, [&](std::size_t begin, std::size_t end) {
    std::lock_guard lock(mu);
    chunks.push_back({begin, end});
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 10}));
}

// Under the pre-parallel-layer pool this deadlocked: both workers blocked
// in the nested call's future.get() with the nested tasks stuck behind
// them in the queue. Nested calls now execute inline on the worker.
TEST(ParallelForTest, NestedParallelForOnSamePoolDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(4, [&pool, &count](std::size_t) {
    pool.parallel_for(8, [&count](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 32);
}

// The calling thread's own chunk is a parallel region too: a nested call
// made there runs inline on the caller, as it does on a worker, instead
// of waking idle workers for every small nested region.
TEST(ParallelForTest, NestedCallInCallerChunkRunsInline) {
  ThreadsOverride guard(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> nested_chunks;
  std::vector<std::thread::id> nested_threads;
  bool caller_in_region = false;
  parallel_for(4, 1, [&](std::size_t begin, std::size_t) {
    if (begin != 0) return;
    caller_in_region = ThreadPool::in_parallel_region();
    parallel_for(64, 1, [&](std::size_t b, std::size_t e) {
      std::lock_guard lock(mu);
      nested_chunks.push_back({b, e});
      nested_threads.push_back(std::this_thread::get_id());
    });
  });
  EXPECT_TRUE(caller_in_region);
  ASSERT_EQ(nested_chunks.size(), 1u);
  EXPECT_EQ(nested_chunks[0], (std::pair<std::size_t, std::size_t>{0, 64}));
  EXPECT_EQ(nested_threads[0], caller);
  // The marker ends with the region: a later call fans out again.
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ParallelForTest, NestedFreeParallelForDoesNotDeadlock) {
  ThreadsOverride guard(4);
  std::atomic<int> count{0};
  parallel_for(8, 1, [&count](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      parallel_for(16, 1, [&count](std::size_t b, std::size_t e) {
        count += static_cast<int>(e - b);
      });
    }
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ParallelForTest, ExceptionPropagatesFromWorkerChunk) {
  ThreadsOverride guard(4);
  // n=100 over 4 threads -> chunks start at 0, 25, 50, 75; the throwing
  // chunks run on pool workers, not the calling thread.
  EXPECT_THROW(parallel_for(100, 1,
                            [](std::size_t begin, std::size_t) {
                              if (begin >= 50) throw Error("worker chunk failed");
                            }),
               Error);
}

TEST(ParallelForTest, ExceptionPropagatesFromCallerChunk) {
  ThreadsOverride guard(4);
  std::atomic<int> completed{0};
  try {
    parallel_for(100, 1, [&completed](std::size_t begin, std::size_t end) {
      if (begin == 0) throw Error("caller chunk failed");
      completed += static_cast<int>(end - begin);
    });
    FAIL() << "exception swallowed";
  } catch (const Error&) {
  }
  // The remaining chunks still ran to completion before the rethrow, and
  // the caller left its parallel region.
  EXPECT_EQ(completed.load(), 75);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ParallelForTest, SerialThreadCountRunsInline) {
  ThreadsOverride guard(1);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  // No mutex needed: with parallel_threads() == 1 the callback runs on
  // this thread in a single chunk.
  parallel_for(1000, 1,
               [&](std::size_t begin, std::size_t end) { chunks.push_back({begin, end}); });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 1000}));
}

}  // namespace
}  // namespace spectra
