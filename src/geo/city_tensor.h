// CityTensor: the T x H x W spatiotemporal traffic tensor of §2.1.2
// (x_{1:T} in R^{T x H x W}). The same container doubles as the C x H x W
// context tensor (leading axis = channels instead of time steps), exposed
// under the ContextTensor alias.

#pragma once

#include <vector>

#include "geo/grid.h"

namespace spectra::geo {

class CityTensor {
 public:
  CityTensor() = default;
  // Throws spectra::Error, before allocating, unless
  // binio::checked_count accepts the extents.
  CityTensor(long steps, long height, long width);

  long steps() const { return steps_; }
  long height() const { return height_; }
  long width() const { return width_; }
  long frame_size() const { return height_ * width_; }
  long size() const { return steps_ * height_ * width_; }

  double& at(long t, long row, long col);
  double at(long t, long row, long col) const;

  double& operator[](long flat) { return values_[static_cast<std::size_t>(flat)]; }
  double operator[](long flat) const { return values_[static_cast<std::size_t>(flat)]; }

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  // Frame t as a GridMap copy.
  GridMap frame(long t) const;

  // Overwrite frame t.
  void set_frame(long t, const GridMap& frame);

  // Mean over time per pixel (the paper's time-averaged traffic map).
  GridMap time_average() const;

  // Mean over space per time step (city-wide traffic series).
  std::vector<double> space_average() const;

  // Time series of a single pixel.
  std::vector<double> pixel_series(long row, long col) const;

  // Sub-range of time steps [start, start+len).
  CityTensor slice_time(long start, long len) const;

  // Global peak value; and normalization by peak (paper: per-city traffic
  // anonymized via peak normalization). Both fail on non-finite values
  // (counted in `geo.nonfinite_pixels`) — a silent NaN peak would poison
  // the whole normalized city.
  double peak() const;
  void normalize_peak();

  // Clamp all values to [lo, hi].
  void clamp(double lo, double hi);

 private:
  long steps_ = 0;
  long height_ = 0;
  long width_ = 0;
  std::vector<double> values_;
};

// Context data c in R^{C x H x W}: identical layout, leading axis is the
// contextual-attribute channel.
using ContextTensor = CityTensor;

}  // namespace spectra::geo
