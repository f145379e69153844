#include "geo/city_tensor.h"

#include <algorithm>
#include <array>

#include "util/binio.h"
#include "util/error.h"

namespace spectra::geo {

CityTensor::CityTensor(long steps, long height, long width)
    : steps_(steps), height_(height), width_(width) {
  const std::optional<long> count = binio::checked_count(std::array{steps, height, width});
  SG_CHECK(count.has_value(),
           "CityTensor dimensions must be non-negative with a product that fits in a long");
  values_.assign(static_cast<std::size_t>(*count), 0.0);
}

double& CityTensor::at(long t, long row, long col) {
  SG_CHECK(t >= 0 && t < steps_ && row >= 0 && row < height_ && col >= 0 && col < width_,
           "CityTensor index out of bounds");
  return values_[static_cast<std::size_t>((t * height_ + row) * width_ + col)];
}

double CityTensor::at(long t, long row, long col) const {
  SG_CHECK(t >= 0 && t < steps_ && row >= 0 && row < height_ && col >= 0 && col < width_,
           "CityTensor index out of bounds");
  return values_[static_cast<std::size_t>((t * height_ + row) * width_ + col)];
}

GridMap CityTensor::frame(long t) const {
  SG_CHECK(t >= 0 && t < steps_, "frame index out of bounds");
  const auto begin = values_.begin() + t * frame_size();
  return GridMap(height_, width_, std::vector<double>(begin, begin + frame_size()));
}

void CityTensor::set_frame(long t, const GridMap& frame) {
  SG_CHECK(t >= 0 && t < steps_, "frame index out of bounds");
  SG_CHECK(frame.height() == height_ && frame.width() == width_, "set_frame shape mismatch");
  std::copy(frame.values().begin(), frame.values().end(),
            values_.begin() + t * frame_size());
}

GridMap CityTensor::time_average() const {
  SG_CHECK(steps_ > 0, "time_average of empty CityTensor");
  GridMap avg(height_, width_);
  for (long t = 0; t < steps_; ++t) {
    const double* frame_data = values_.data() + t * frame_size();
    for (long p = 0; p < frame_size(); ++p) avg[p] += frame_data[p];
  }
  avg.scale(1.0 / static_cast<double>(steps_));
  return avg;
}

std::vector<double> CityTensor::space_average() const {
  SG_CHECK(frame_size() > 0, "space_average of empty frames");
  std::vector<double> series(static_cast<std::size_t>(steps_), 0.0);
  for (long t = 0; t < steps_; ++t) {
    const double* frame_data = values_.data() + t * frame_size();
    double acc = 0.0;
    for (long p = 0; p < frame_size(); ++p) acc += frame_data[p];
    series[static_cast<std::size_t>(t)] = acc / static_cast<double>(frame_size());
  }
  return series;
}

std::vector<double> CityTensor::pixel_series(long row, long col) const {
  SG_CHECK(row >= 0 && row < height_ && col >= 0 && col < width_, "pixel index out of bounds");
  std::vector<double> series(static_cast<std::size_t>(steps_));
  for (long t = 0; t < steps_; ++t) {
    series[static_cast<std::size_t>(t)] = values_[static_cast<std::size_t>((t * height_ + row) * width_ + col)];
  }
  return series;
}

CityTensor CityTensor::slice_time(long start, long len) const {
  SG_CHECK(start >= 0 && len >= 0 && start + len <= steps_, "slice_time out of range");
  CityTensor out(len, height_, width_);
  std::copy(values_.begin() + start * frame_size(),
            values_.begin() + (start + len) * frame_size(),
            out.values_.begin());
  return out;
}

double CityTensor::peak() const {
  SG_CHECK(!values_.empty(), "peak of empty CityTensor");
  // max_element's comparator misorders NaN: one NaN pixel would yield a
  // bogus peak and poison the normalized city. Fail loudly instead.
  detail::check_finite(values_, "CityTensor::peak");
  return *std::max_element(values_.begin(), values_.end());
}

void CityTensor::normalize_peak() {
  const double p = values_.empty() ? 0.0 : peak();
  if (p <= 0.0) return;
  for (double& v : values_) v /= p;
}

void CityTensor::clamp(double lo, double hi) {
  for (double& v : values_) v = std::clamp(v, lo, hi);
}

}  // namespace spectra::geo
