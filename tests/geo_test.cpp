#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "geo/city_tensor.h"
#include "geo/grid.h"
#include "geo/patching.h"
#include "geo/strip_accumulator.h"
#include "obs/metrics.h"
#include "reference/sewing_reference.h"
#include "util/error.h"
#include "util/rng.h"

namespace spectra::geo {
namespace {

TEST(GridMapTest, AccessorsAndBounds) {
  GridMap m(3, 4);
  m.at(2, 3) = 7.0;
  EXPECT_EQ(m[2 * 4 + 3], 7.0);
  EXPECT_THROW(m.at(3, 0), spectra::Error);
  EXPECT_THROW(m.at(0, 4), spectra::Error);
}

TEST(GridMapTest, Statistics) {
  GridMap m(2, 2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(m.sum(), 10.0);
  EXPECT_DOUBLE_EQ(m.mean(), 2.5);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 4.0);
}

TEST(GridMapTest, NormalizePeak) {
  GridMap m(1, 3, {1.0, 2.0, 4.0});
  m.normalize_peak();
  EXPECT_DOUBLE_EQ(m.max(), 1.0);
  EXPECT_DOUBLE_EQ(m[0], 0.25);
  GridMap zeros(2, 2);
  zeros.normalize_peak();  // no-op, no division by zero
  EXPECT_DOUBLE_EQ(zeros.max(), 0.0);
}

TEST(GridMapTest, AddScaleFill) {
  GridMap a(1, 2, {1.0, 2.0});
  GridMap b(1, 2, {10.0, 20.0});
  a.add(b);
  EXPECT_DOUBLE_EQ(a[1], 22.0);
  a.scale(0.5);
  EXPECT_DOUBLE_EQ(a[0], 5.5);
  a.fill(0.0);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
  GridMap c(2, 1);
  EXPECT_THROW(a.add(c), spectra::Error);
}

TEST(CityTensorTest, FrameRoundTrip) {
  CityTensor t(3, 2, 2);
  GridMap f(2, 2, {1.0, 2.0, 3.0, 4.0});
  t.set_frame(1, f);
  const GridMap back = t.frame(1);
  for (long p = 0; p < 4; ++p) EXPECT_DOUBLE_EQ(back[p], f[p]);
  EXPECT_DOUBLE_EQ(t.frame(0).sum(), 0.0);
  EXPECT_THROW(t.frame(3), spectra::Error);
}

TEST(CityTensorTest, TimeAverage) {
  CityTensor t(2, 1, 2);
  t.at(0, 0, 0) = 2.0;
  t.at(1, 0, 0) = 4.0;
  t.at(0, 0, 1) = 0.0;
  t.at(1, 0, 1) = 6.0;
  const GridMap avg = t.time_average();
  EXPECT_DOUBLE_EQ(avg.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(avg.at(0, 1), 3.0);
}

TEST(CityTensorTest, SpaceAverageAndPixelSeries) {
  CityTensor t(2, 2, 1);
  t.at(0, 0, 0) = 1.0;
  t.at(0, 1, 0) = 3.0;
  t.at(1, 0, 0) = 5.0;
  t.at(1, 1, 0) = 7.0;
  const std::vector<double> s = t.space_average();
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[1], 6.0);
  const std::vector<double> p = t.pixel_series(1, 0);
  EXPECT_DOUBLE_EQ(p[0], 3.0);
  EXPECT_DOUBLE_EQ(p[1], 7.0);
}

TEST(CityTensorTest, SliceTime) {
  CityTensor t(5, 1, 1);
  for (long k = 0; k < 5; ++k) t.at(k, 0, 0) = static_cast<double>(k);
  const CityTensor s = t.slice_time(1, 3);
  EXPECT_EQ(s.steps(), 3);
  EXPECT_DOUBLE_EQ(s.at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(s.at(2, 0, 0), 3.0);
  EXPECT_THROW(t.slice_time(3, 3), spectra::Error);
}

TEST(CityTensorTest, PeakNormalizeAndClamp) {
  CityTensor t(1, 1, 3);
  t.at(0, 0, 0) = -1.0;
  t.at(0, 0, 1) = 2.0;
  t.at(0, 0, 2) = 4.0;
  t.normalize_peak();
  EXPECT_DOUBLE_EQ(t.peak(), 1.0);
  t.clamp(0.0, 1.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0, 0), 0.0);
}

TEST(PatchSpecTest, Validation) {
  PatchSpec good;
  EXPECT_NO_THROW(good.validate());
  PatchSpec small_context = good;
  small_context.context_h = 2;
  EXPECT_THROW(small_context.validate(), spectra::Error);
  PatchSpec odd_halo = good;
  odd_halo.context_h = 9;
  EXPECT_THROW(odd_halo.validate(), spectra::Error);
  PatchSpec big_stride = good;
  big_stride.stride = 5;
  EXPECT_THROW(big_stride.validate(), spectra::Error);
  EXPECT_EQ(good.halo_h(), 2);
}

struct WindowCase {
  long height;
  long width;
  long stride;
};

class WindowCoverageTest : public testing::TestWithParam<WindowCase> {};

TEST_P(WindowCoverageTest, EveryPixelCovered) {
  const WindowCase c = GetParam();
  PatchSpec spec;
  spec.stride = c.stride;
  const std::vector<PatchWindow> windows = enumerate_windows(c.height, c.width, spec);
  std::vector<int> covered(static_cast<std::size_t>(c.height * c.width), 0);
  for (const PatchWindow& w : windows) {
    EXPECT_GE(w.row, 0);
    EXPECT_LE(w.row + spec.traffic_h, c.height);
    for (long i = 0; i < spec.traffic_h; ++i) {
      for (long j = 0; j < spec.traffic_w; ++j) {
        ++covered[static_cast<std::size_t>((w.row + i) * c.width + w.col + j)];
      }
    }
  }
  for (int v : covered) EXPECT_GE(v, 1);
}

INSTANTIATE_TEST_SUITE_P(Geometries, WindowCoverageTest,
                         testing::Values(WindowCase{12, 12, 2}, WindowCase{13, 17, 2},
                                         WindowCase{16, 15, 3}, WindowCase{4, 4, 2},
                                         WindowCase{21, 8, 4}, WindowCase{9, 31, 1}));

// Border-clamp specifics of the sliding window: when the stride does not
// divide H - traffic_h the final origin is clamped to end exactly at the
// map edge, origins never repeat, and a map of exactly one patch yields
// exactly one origin.
TEST(EnumerateWindowsTest, ClampsFinalOriginWhenStrideDoesNotDivide) {
  PatchSpec spec;  // traffic 4x4
  spec.stride = 3;
  // H = 13: origins 0, 3, 6, 9 (= 13 - 4, exact hit). W = 12: 0, 3, 6,
  // then 9 > 12 - 4 = 8 clamps to 8.
  const std::vector<PatchWindow> windows = enumerate_windows(13, 12, spec);
  std::vector<long> rows, cols;
  for (const PatchWindow& w : windows) {
    if (w.col == 0) rows.push_back(w.row);
    if (w.row == 0) cols.push_back(w.col);
  }
  EXPECT_EQ(rows, (std::vector<long>{0, 3, 6, 9}));
  EXPECT_EQ(cols, (std::vector<long>{0, 3, 6, 8}));
  EXPECT_EQ(windows.size(), rows.size() * cols.size());
  EXPECT_EQ(windows.back().row, 13 - spec.traffic_h);
  EXPECT_EQ(windows.back().col, 12 - spec.traffic_w);
}

TEST(EnumerateWindowsTest, MapOfExactlyOnePatchYieldsOneWindow) {
  PatchSpec spec;  // traffic 4x4
  spec.stride = 2;
  const std::vector<PatchWindow> windows = enumerate_windows(4, 4, spec);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].row, 0);
  EXPECT_EQ(windows[0].col, 0);
}

TEST(EnumerateWindowsTest, RectangularMapOrdersRowMajorWithoutDuplicates) {
  PatchSpec spec;
  spec.stride = 2;
  // H == traffic_h: a single origin row; W = 9 clamps the last column.
  const std::vector<PatchWindow> windows = enumerate_windows(4, 9, spec);
  for (const PatchWindow& w : windows) EXPECT_EQ(w.row, 0);
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_GT(windows[i].col, windows[i - 1].col) << "origins must be strictly increasing";
  }
  EXPECT_EQ(windows.back().col, 9 - spec.traffic_w);
  EXPECT_THROW(enumerate_windows(3, 9, spec), spectra::Error);  // smaller than one patch
}

TEST(PatchExtractionTest, ContextHaloZeroPadded) {
  ContextTensor context(2, 6, 6);
  for (long c = 0; c < 2; ++c) {
    for (long i = 0; i < 6; ++i) {
      for (long j = 0; j < 6; ++j) context.at(c, i, j) = 1.0;
    }
  }
  PatchSpec spec;  // traffic 4x4, context 8x8, halo 2
  const std::vector<float> patch = extract_context_patch(context, {0, 0}, spec);
  ASSERT_EQ(patch.size(), static_cast<std::size_t>(2 * 8 * 8));
  // Top-left corner of the context patch is outside the map -> zero.
  EXPECT_FLOAT_EQ(patch[0], 0.0f);
  // Center is inside -> one.
  EXPECT_FLOAT_EQ(patch[3 * 8 + 3], 1.0f);
}

TEST(PatchExtractionTest, TrafficPatchValues) {
  CityTensor traffic(2, 6, 6);
  traffic.at(1, 2, 3) = 42.0;
  PatchSpec spec;
  const std::vector<float> patch = extract_traffic_patch(traffic, {2, 2}, spec);
  // [T=2, 4, 4]; value at t=1, local (0,1).
  EXPECT_FLOAT_EQ(patch[16 + 0 * 4 + 1], 42.0f);
  EXPECT_THROW(extract_traffic_patch(traffic, {4, 0}, spec), spectra::Error);
}

// Sews (window, patch) pairs, in order, through a StripAccumulator into
// a CityTensorSink: the production sewing path.
CityTensor sew(long steps, long height, long width, const PatchSpec& spec,
               const std::vector<std::pair<PatchWindow, std::vector<float>>>& patches,
               OverlapAggregation aggregation = OverlapAggregation::kMean) {
  CityTensorSink sink(steps, height, width);
  StripAccumulator strip(steps, height, width, sink, aggregation);
  for (const auto& [window, patch] : patches) strip.add_patch(window, spec, patch);
  strip.finish();
  return sink.take();
}

// A 2x2 traffic patch with stride 1 (context = traffic, no halo).
PatchSpec small_spec() {
  PatchSpec spec;
  spec.traffic_h = 2;
  spec.traffic_w = 2;
  spec.context_h = 2;
  spec.context_w = 2;
  spec.stride = 1;
  return spec;
}

TEST(SewingTest, AveragesOverlappingPatches) {
  PatchSpec spec;
  spec.stride = 2;
  // Every patch contributes the constant 2.0: the average must be 2.0
  // everywhere regardless of multiplicity (Eq. 2 sanity).
  const std::vector<float> patch(static_cast<std::size_t>(1 * 4 * 4), 2.0f);
  std::vector<std::pair<PatchWindow, std::vector<float>>> patches;
  for (const PatchWindow& w : enumerate_windows(6, 6, spec)) patches.emplace_back(w, patch);
  const CityTensor out = sew(1, 6, 6, spec, patches);
  for (long i = 0; i < 6; ++i) {
    for (long j = 0; j < 6; ++j) EXPECT_NEAR(out.at(0, i, j), 2.0, 1e-9);
  }
}

TEST(SewingTest, DistinctValuesAverage) {
  // Two overlapping 2x2 patches over a 2x3 map: columns 1 get both.
  const CityTensor out = sew(1, 2, 3, small_spec(),
                             {{{0, 0}, std::vector<float>(4, 1.0f)},
                              {{0, 1}, std::vector<float>(4, 3.0f)}});
  EXPECT_NEAR(out.at(0, 0, 0), 1.0, 1e-9);
  EXPECT_NEAR(out.at(0, 0, 1), 2.0, 1e-9);  // (1+3)/2
  EXPECT_NEAR(out.at(0, 0, 2), 3.0, 1e-9);
}

TEST(SewingTest, MedianAggregationRobustToOutlierPatch) {
  // Paper §2.2.4 leaves beyond-average aggregation as future work; the
  // median extension must ignore a single corrupted patch.
  const std::vector<float> good(4, 1.0f);
  const std::vector<float> outlier(4, 100.0f);
  const std::vector<std::pair<PatchWindow, std::vector<float>>> patches = {
      {{0, 0}, good}, {{0, 0}, good}, {{0, 0}, outlier}};
  EXPECT_NEAR(sew(1, 2, 2, small_spec(), patches, OverlapAggregation::kMean).at(0, 0, 0), 34.0,
              1e-9);
  EXPECT_NEAR(sew(1, 2, 2, small_spec(), patches, OverlapAggregation::kMedian).at(0, 0, 0), 1.0,
              1e-9);
}

TEST(SewingTest, MedianOfEvenCountAveragesCentralPair) {
  const CityTensor out = sew(1, 2, 2, small_spec(),
                             {{{0, 0}, std::vector<float>(4, 1.0f)},
                              {{0, 0}, std::vector<float>(4, 3.0f)}},
                             OverlapAggregation::kMedian);
  EXPECT_NEAR(out.at(0, 0, 0), 2.0, 1e-9);
}

TEST(SewingTest, MedianMatchesMeanWhenPatchesAgree) {
  PatchSpec spec;
  spec.stride = 2;
  std::vector<std::pair<PatchWindow, std::vector<float>>> patches;
  for (const PatchWindow& w : enumerate_windows(8, 8, spec)) {
    patches.emplace_back(w, std::vector<float>(16, 0.7f));
  }
  const CityTensor a = sew(1, 8, 8, spec, patches, OverlapAggregation::kMean);
  const CityTensor b = sew(1, 8, 8, spec, patches, OverlapAggregation::kMedian);
  for (long p = 0; p < 64; ++p) EXPECT_NEAR(a[p], b[p], 1e-6);
}

TEST(SewingTest, UncoveredPixelRejected) {
  PatchSpec spec;
  // Columns 4..7 are never covered.
  EXPECT_THROW(sew(1, 8, 8, spec, {{{0, 0}, std::vector<float>(16, 1.0f)}}), spectra::Error);
}

// ---------------------------------------------------------------------------
// StripAccumulator: bounded-memory sewing must be bitwise identical to the
// dense reference sewer (tests/reference/sewing_reference.h, DESIGN §6f).

// Captures every emitted row for inspection.
class RecordingSink : public RowSink {
 public:
  void consume_row(long row, const std::vector<double>& values) override {
    rows.push_back(row);
    data.push_back(values);  // copy: the accumulator reuses the buffer
  }

  std::vector<long> rows;
  std::vector<std::vector<double>> data;
};

// Random patches in enumerate_windows order through both accumulators;
// the streamed rows must match the dense canvas bit for bit.
void expect_strip_equals_dense(long steps, long height, long width, long stride,
                               OverlapAggregation aggregation) {
  PatchSpec spec;
  spec.stride = stride;
  const std::vector<PatchWindow> windows = enumerate_windows(height, width, spec);
  const std::size_t patch_size =
      static_cast<std::size_t>(steps * spec.traffic_h * spec.traffic_w);

  spectra::Rng rng(42);
  std::vector<std::vector<float>> patches;
  patches.reserve(windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    std::vector<float> patch(patch_size);
    for (float& v : patch) v = static_cast<float>(rng.uniform(-1.0, 5.0));
    patches.push_back(std::move(patch));
  }

  reference::OverlapAccumulator dense(steps, height, width, aggregation);
  CityTensorSink sink(steps, height, width);
  StripAccumulator strip(steps, height, width, sink, aggregation);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    dense.add_patch(windows[w], spec, patches[w]);
    strip.add_patch(windows[w], spec, patches[w]);
  }
  strip.finish();

  const CityTensor want = dense.finalize();
  const CityTensor got = sink.take();
  ASSERT_EQ(got.size(), want.size());
  for (long p = 0; p < want.size(); ++p) {
    ASSERT_EQ(got[p], want[p]) << "pixel " << p << " diverged (aggregation="
                               << (aggregation == OverlapAggregation::kMean ? "mean" : "median")
                               << ")";
  }
}

TEST(StripAccumulatorTest, BitwiseEqualsDenseMean) {
  expect_strip_equals_dense(3, 13, 12, 3, OverlapAggregation::kMean);  // clamped final strip
  expect_strip_equals_dense(2, 12, 12, 2, OverlapAggregation::kMean);
  expect_strip_equals_dense(1, 4, 9, 2, OverlapAggregation::kMean);  // single-strip map
}

TEST(StripAccumulatorTest, BitwiseEqualsDenseMedian) {
  expect_strip_equals_dense(3, 13, 12, 3, OverlapAggregation::kMedian);
  expect_strip_equals_dense(2, 12, 12, 2, OverlapAggregation::kMedian);
}

TEST(StripAccumulatorTest, RowsFinalizeAsStripsRetire) {
  PatchSpec spec;  // traffic 4x4, stride 2
  spec.stride = 2;
  const long height = 10, width = 4;
  RecordingSink sink;
  StripAccumulator strip(1, height, width, sink);
  const std::vector<float> patch(16, 1.0f);

  const std::vector<PatchWindow> windows = enumerate_windows(height, width, spec);
  for (const PatchWindow& w : windows) {
    strip.add_patch(w, spec, patch);
    // A row is emitted the moment no later window can touch it: after the
    // strip at origin r lands, rows below r are final.
    EXPECT_EQ(strip.rows_emitted(), w.row) << "rows below the current origin must be emitted";
  }
  strip.finish();

  // Every row exactly once, strictly increasing.
  ASSERT_EQ(sink.rows.size(), static_cast<std::size_t>(height));
  for (long r = 0; r < height; ++r) EXPECT_EQ(sink.rows[static_cast<std::size_t>(r)], r);
  EXPECT_EQ(strip.rows_emitted(), height);
  strip.finish();  // idempotent
  EXPECT_EQ(sink.rows.size(), static_cast<std::size_t>(height));
}

TEST(StripAccumulatorTest, RejectsOutOfOrderAndLatePatches) {
  PatchSpec spec;
  spec.stride = 2;
  CityTensorSink sink(1, 8, 8);
  StripAccumulator strip(1, 8, 8, sink);
  const std::vector<float> patch(16, 1.0f);
  for (const PatchWindow& w : enumerate_windows(8, 8, spec)) strip.add_patch(w, spec, patch);
  // Origin row 0 was already finalized once the origin advanced past it.
  EXPECT_THROW(strip.add_patch({0, 0}, spec, patch), spectra::Error);
  strip.finish();
  EXPECT_THROW(strip.add_patch({4, 4}, spec, patch), spectra::Error);
}

TEST(SpillRowSinkTest, RoundTripsRowsThroughDisk) {
  // 17 rows: two full batch flushes mid-run, and a one-row tail at close.
  const long steps = 3, width = 5, rows = 2 * SpillRowSink::kBatchRows + 1;
  const std::string path = testing::TempDir() + "/spill_roundtrip.bin";
  {
    SpillRowSink sink(path, steps, width);
    std::vector<double> row(static_cast<std::size_t>(steps * width));
    for (long r = 0; r < rows; ++r) {
      for (long k = 0; k < steps * width; ++k) {
        row[static_cast<std::size_t>(k)] = static_cast<double>(r * 1000 + k);
      }
      sink.consume_row(r, row);
    }
    sink.close();
    EXPECT_EQ(sink.rows_written(), rows);
    EXPECT_EQ(sink.bytes_written(),
              static_cast<long long>(rows * steps * width) *
                  static_cast<long long>(sizeof(double)));
  }
  std::vector<double> back;
  for (long r = rows - 1; r >= 0; --r) {  // random access, reverse order
    read_spilled_row(path, steps, width, r, back);
    ASSERT_EQ(back.size(), static_cast<std::size_t>(steps * width));
    for (long k = 0; k < steps * width; ++k) {
      EXPECT_EQ(back[static_cast<std::size_t>(k)], static_cast<double>(r * 1000 + k));
    }
  }
  EXPECT_THROW(read_spilled_row(path, steps, width, rows, back), spectra::Error);
  std::remove(path.c_str());
}

TEST(SpillRowSinkTest, RejectsOutOfOrderRows) {
  const std::string path = testing::TempDir() + "/spill_order.bin";
  SpillRowSink sink(path, 1, 2);
  const std::vector<double> row(2, 0.0);
  sink.consume_row(0, row);
  EXPECT_THROW(sink.consume_row(2, row), spectra::Error);  // gap
  sink.close();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sink write failures: a typed, catchable SinkWriteError counted in
// geo.sink_write_errors — never an abort, and never a terminate() from
// a throwing destructor.

// A sink whose downstream "device" fails mid-stream, the way SpillRowSink
// fails on a short write.
class FailingSink : public RowSink {
 public:
  explicit FailingSink(long fail_at) : fail_at_(fail_at) {}
  void consume_row(long row, const std::vector<double>&) override {
    if (row >= fail_at_) throw SinkWriteError("FailingSink rejecting row " + std::to_string(row));
    ++rows_ok_;
  }
  long rows_ok() const { return rows_ok_; }

 private:
  long fail_at_;
  long rows_ok_ = 0;
};

TEST(SinkWriteErrorTest, PropagatesThroughStripAccumulator) {
  PatchSpec spec{.traffic_h = 4, .traffic_w = 4, .context_h = 8, .context_w = 8, .stride = 4};
  FailingSink sink(/*fail_at=*/4);
  StripAccumulator strip(1, 8, 8, sink);
  const std::vector<float> patch(16, 1.0f);
  for (const PatchWindow& w : enumerate_windows(8, 8, spec)) strip.add_patch(w, spec, patch);
  // Rows 0..3 stream out while the second strip accumulates; row 4 hits
  // the failing device and the typed error surfaces to the caller.
  EXPECT_THROW(strip.finish(), SinkWriteError);
  EXPECT_EQ(sink.rows_ok(), 4);
}

TEST(SinkWriteErrorTest, SpillRowSinkFullDeviceThrowsTypedError) {
#ifdef __linux__
  // /dev/full fails every write with ENOSPC: the batched fwrite at the
  // first full batch must surface as SinkWriteError, not an abort. Rows
  // before it only fill the sink's own buffer.
  obs::Counter& errors = obs::Registry::instance().counter("geo.sink_write_errors");
  const std::uint64_t before = errors.value();
  const long steps = 4, width = 64;  // a batch (16 KiB) overflows the stdio buffer
  SpillRowSink sink("/dev/full", steps, width);
  const std::vector<double> row(static_cast<std::size_t>(steps * width), 1.0);
  for (long r = 0; r + 1 < SpillRowSink::kBatchRows; ++r) sink.consume_row(r, row);
  EXPECT_THROW(sink.consume_row(SpillRowSink::kBatchRows - 1, row), SinkWriteError);
  EXPECT_GE(errors.value(), before + 1);
  EXPECT_THROW(sink.consume_row(SpillRowSink::kBatchRows, row), spectra::Error);  // stays closed
#else
  GTEST_SKIP() << "/dev/full is Linux-specific";
#endif
}

TEST(SinkWriteErrorTest, DestructorSwallowsCloseFailure) {
#ifdef __linux__
  // Dropping an unflushed sink on a full device must log-and-count, not
  // terminate the process through a throwing destructor.
  obs::Counter& errors = obs::Registry::instance().counter("geo.sink_write_errors");
  const std::uint64_t before = errors.value();
  {
    SpillRowSink sink("/dev/full", 4, 64);
    const std::vector<double> row(4 * 64, 1.0);
    for (long r = 0; r < 4; ++r) sink.consume_row(r, row);  // under one batch: nothing written
  }  // destructor flushes, fails, and survives
  EXPECT_GE(errors.value(), before + 1);
#else
  GTEST_SKIP() << "/dev/full is Linux-specific";
#endif
}

// ---------------------------------------------------------------------------
// NaN guards: peak normalization must fail loudly on non-finite input
// instead of silently poisoning the map (geo.nonfinite_pixels counts).

TEST(NonFiniteGuardTest, CityTensorPeakRejectsNaN) {
  obs::Counter& bad = obs::Registry::instance().counter("geo.nonfinite_pixels");
  const std::uint64_t before = bad.value();
  CityTensor t(1, 2, 2);
  t.at(0, 0, 0) = 3.0;
  t.at(0, 1, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(t.peak(), spectra::Error);
  EXPECT_THROW(t.normalize_peak(), spectra::Error);
  EXPECT_GT(bad.value(), before);
}

TEST(NonFiniteGuardTest, GridMapNormalizePeakRejectsInfinity) {
  GridMap m(2, 2, {1.0, 2.0, std::numeric_limits<double>::infinity(), 4.0});
  EXPECT_THROW(m.normalize_peak(), spectra::Error);
  CityTensor fine(1, 1, 2);
  fine.at(0, 0, 1) = 5.0;
  EXPECT_NO_THROW(fine.normalize_peak());  // finite input unaffected
  EXPECT_DOUBLE_EQ(fine.peak(), 1.0);
}

}  // namespace
}  // namespace spectra::geo
