#include "geo/strip_accumulator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/log.h"

namespace spectra::geo {

// --- CityTensorSink ---------------------------------------------------------

CityTensorSink::CityTensorSink(long steps, long height, long width)
    : city_(steps, height, width) {}

void CityTensorSink::consume_row(long row, const std::vector<double>& values) {
  const long W = city_.width();
  SG_CHECK(row >= 0 && row < city_.height(), "CityTensorSink row out of bounds");
  SG_CHECK(static_cast<long>(values.size()) == city_.steps() * W,
           "CityTensorSink row size mismatch");
  for (long t = 0; t < city_.steps(); ++t) {
    const double* src = values.data() + t * W;
    double* dst = &city_[(t * city_.height() + row) * W];
    std::copy(src, src + W, dst);
  }
  ++rows_received_;
}

CityTensor CityTensorSink::take() {
  SG_CHECK(rows_received_ == city_.height(), "CityTensorSink missing rows");
  return std::move(city_);
}

// --- SpillRowSink -----------------------------------------------------------

SpillRowSink::SpillRowSink(const std::string& path, long steps, long width)
    : path_(path), row_values_(steps * width) {
  SG_CHECK(steps > 0 && width > 0, "SpillRowSink needs a positive row shape");
  file_ = std::fopen(path_.c_str(), "wb");
  SG_CHECK(file_ != nullptr, "SpillRowSink cannot open spill file " + path_);
  buffer_.reserve(static_cast<std::size_t>(kBatchRows * row_values_));
}

namespace {

obs::Counter& sink_write_errors() {
  static obs::Counter& c = obs::Registry::instance().counter("geo.sink_write_errors");
  return c;
}

}  // namespace

SpillRowSink::~SpillRowSink() {
  // A throw during unwinding would terminate the process; the typed-error
  // contract is that write failures are catchable, so the destructor
  // degrades to log-and-count (close() already incremented the counter).
  try {
    close();
  } catch (const SinkWriteError& e) {
    SG_LOG_ERROR << "SpillRowSink: dropping write failure in destructor: " << e.what();
  }
}

void SpillRowSink::consume_row(long row, const std::vector<double>& values) {
  static obs::Counter& spilled = obs::Registry::instance().counter("geo.rows_spilled");
  SG_CHECK(file_ != nullptr, "SpillRowSink already closed");
  SG_CHECK(row == rows_written_ + static_cast<long>(buffer_.size()) / row_values_,
           "SpillRowSink rows must arrive in order");
  SG_CHECK(static_cast<long>(values.size()) == row_values_, "SpillRowSink row size mismatch");
  buffer_.insert(buffer_.end(), values.begin(), values.end());
  spilled.inc();
  if (static_cast<long>(buffer_.size()) >= kBatchRows * row_values_) flush();
}

void SpillRowSink::flush() {
  if (buffer_.empty() || file_ == nullptr) return;
  const std::size_t wrote = std::fwrite(buffer_.data(), sizeof(double), buffer_.size(), file_);
  if (wrote != buffer_.size()) {
    sink_write_errors().inc();
    // The file is unusable past a short write (the row framing is torn);
    // close it so later consume_row calls fail fast instead of appending
    // misaligned records.
    std::fclose(file_);
    file_ = nullptr;
    throw SinkWriteError("SpillRowSink short write to " + path_);
  }
  rows_written_ += static_cast<long>(buffer_.size()) / row_values_;
  bytes_written_ += static_cast<long long>(wrote * sizeof(double));
  buffer_.clear();
}

void SpillRowSink::close() {
  if (file_ == nullptr) return;
  flush();
  std::FILE* f = file_;
  file_ = nullptr;
  if (std::fclose(f) != 0) {
    // fclose flushes the stdio buffer, so ENOSPC surfaces here even when
    // every fwrite "succeeded" into the buffer.
    sink_write_errors().inc();
    throw SinkWriteError("SpillRowSink failed to close " + path_);
  }
}

void read_spilled_row(const std::string& path, long steps, long width, long row,
                      std::vector<double>& values) {
  SG_CHECK(steps > 0 && width > 0 && row >= 0, "read_spilled_row bad arguments");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  SG_CHECK(f != nullptr, "read_spilled_row cannot open " + path);
  const long row_values = steps * width;
  values.resize(static_cast<std::size_t>(row_values));
  const long long offset = static_cast<long long>(row) * row_values *
                           static_cast<long long>(sizeof(double));
  const bool sought = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0;
  const std::size_t read =
      sought ? std::fread(values.data(), sizeof(double), values.size(), f) : 0;
  std::fclose(f);
  SG_CHECK(sought && read == values.size(), "read_spilled_row truncated read from " + path);
}

// --- StripAccumulator -------------------------------------------------------

StripAccumulator::StripAccumulator(long steps, long height, long width, RowSink& sink,
                                   OverlapAggregation aggregation)
    : aggregation_(aggregation), steps_(steps), height_(height), width_(width), sink_(sink) {
  SG_CHECK(steps > 0 && height > 0 && width > 0,
           "StripAccumulator dimensions must be positive");
}

StripAccumulator::RowBuf StripAccumulator::acquire_row() {
  RowBuf buf;
  if (!free_rows_.empty()) {
    buf = std::move(free_rows_.back());
    free_rows_.pop_back();
    std::fill(buf.sum.begin(), buf.sum.end(), 0.0);
    std::fill(buf.count.begin(), buf.count.end(), 0.0);
    for (std::vector<double>& c : buf.contribs) c.clear();
  } else {
    buf.sum.assign(static_cast<std::size_t>(steps_ * width_), 0.0);
    buf.count.assign(static_cast<std::size_t>(width_), 0.0);
    if (aggregation_ == OverlapAggregation::kMedian) {
      buf.contribs.resize(static_cast<std::size_t>(steps_ * width_));
    }
  }
  return buf;
}

void StripAccumulator::ensure_rows_through(long row) {
  while (band_start_ + static_cast<long>(band_.size()) <= row) {
    band_.push_back(acquire_row());
  }
}

std::size_t StripAccumulator::resident_bytes() const {
  std::size_t bytes = 0;
  auto row_bytes = [](const RowBuf& buf) {
    std::size_t b = buf.sum.capacity() * sizeof(double) + buf.count.capacity() * sizeof(double);
    for (const std::vector<double>& c : buf.contribs) b += c.capacity() * sizeof(double);
    return b;
  };
  for (const RowBuf& buf : band_) bytes += row_bytes(buf);
  for (const RowBuf& buf : free_rows_) bytes += row_bytes(buf);
  return bytes;
}

void StripAccumulator::add_patch(const PatchWindow& window, const PatchSpec& spec,
                                 const std::vector<float>& patch) {
  add_patch(window, spec, patch.data(), patch.size());
}

void StripAccumulator::add_patch(const PatchWindow& window, const PatchSpec& spec,
                                 const float* values, std::size_t size) {
  static obs::Counter& patches = obs::Registry::instance().counter("geo.patches_accumulated");
  patches.inc();
  SG_CHECK(!finished_, "StripAccumulator::add_patch after finish");
  SG_CHECK(static_cast<long>(size) == steps_ * spec.traffic_h * spec.traffic_w,
           "patch size does not match accumulator geometry");
  SG_CHECK(window.row >= 0 && window.row + spec.traffic_h <= height_ && window.col >= 0 &&
               window.col + spec.traffic_w <= width_,
           "patch window out of bounds");
  SG_CHECK(window.row >= band_start_,
           "patches must arrive in enumerate_windows order (non-decreasing origin row)");

  // Entering a new strip: every row above the new origin can no longer
  // receive contributions — stream it out before touching the band.
  finalize_rows_below(window.row);
  ensure_rows_through(window.row + spec.traffic_h - 1);

  const float* p = values;
  for (long t = 0; t < steps_; ++t) {
    for (long i = 0; i < spec.traffic_h; ++i) {
      RowBuf& buf = band_[static_cast<std::size_t>(window.row + i - band_start_)];
      double* sum_row = buf.sum.data() + t * width_ + window.col;
      for (long j = 0; j < spec.traffic_w; ++j) {
        const double v = static_cast<double>(*p++);
        sum_row[j] += v;
        if (aggregation_ == OverlapAggregation::kMedian) {
          buf.contribs[static_cast<std::size_t>(t * width_ + window.col + j)].push_back(v);
        }
      }
    }
  }
  for (long i = 0; i < spec.traffic_h; ++i) {
    RowBuf& buf = band_[static_cast<std::size_t>(window.row + i - band_start_)];
    for (long j = 0; j < spec.traffic_w; ++j) {
      buf.count[static_cast<std::size_t>(window.col + j)] += 1.0;
    }
  }
}

void StripAccumulator::finalize_rows_below(long row) {
  if (band_start_ >= row) return;
  SG_PROFILE_SCOPE("geo/strip_finalize");
  static obs::Counter& strips = obs::Registry::instance().counter("geo.strips_finalized");
  static obs::MaxGauge& peak =
      obs::Registry::instance().max_gauge("geo.strip_resident_bytes_peak");
  strips.inc();
  // The band is at its fullest right before a strip retires: sample the
  // high-water mark here (once per strip, not per patch).
  peak.update(static_cast<double>(resident_bytes()));
  while (band_start_ < row) {
    SG_CHECK(!band_.empty(), "row finalized before any patch covered it");
    emit_row(band_start_, band_.front());
    free_rows_.push_back(std::move(band_.front()));
    band_.pop_front();
    ++band_start_;
  }
}

// One row at a time: the mean divides the window-ordered sum once, the
// median runs a single nth_element partition pass (upper median; for
// even counts the lower median is the max of the left partition).
void StripAccumulator::emit_row(long row, RowBuf& buf) {
  emit_buf_.resize(static_cast<std::size_t>(steps_ * width_));
  for (long j = 0; j < width_; ++j) {
    const double n = buf.count[static_cast<std::size_t>(j)];
    SG_CHECK(n > 0.0, "pixel not covered by any patch");
    for (long t = 0; t < steps_; ++t) {
      const std::size_t tj = static_cast<std::size_t>(t * width_ + j);
      if (aggregation_ == OverlapAggregation::kMean) {
        emit_buf_[tj] = buf.sum[tj] / n;
      } else {
        const std::vector<double>& contribs = buf.contribs[tj];
        median_scratch_.assign(contribs.begin(), contribs.end());
        const auto mid =
            median_scratch_.begin() + static_cast<std::ptrdiff_t>(median_scratch_.size() / 2);
        std::nth_element(median_scratch_.begin(), mid, median_scratch_.end());
        double median = *mid;
        if (median_scratch_.size() % 2 == 0) {
          median = 0.5 * (*std::max_element(median_scratch_.begin(), mid) + median);
        }
        emit_buf_[tj] = median;
      }
    }
  }
  sink_.consume_row(row, emit_buf_);
}

void StripAccumulator::finish() {
  if (finished_) return;
  finalize_rows_below(height_);
  SG_CHECK(band_start_ == height_, "StripAccumulator finished with unemitted rows");
  finished_ = true;
}

}  // namespace spectra::geo
