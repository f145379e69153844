// The dense sewer (§2.2.4, Eq. 2): every patch accumulates into a
// resident T x H x W canvas, and finalize() reduces each pixel serially.
// geo::StripAccumulator must reproduce its cities bit for bit in both
// aggregation modes (geo_test).

#pragma once

#include <cstddef>
#include <vector>

#include "geo/city_tensor.h"
#include "geo/grid.h"
#include "geo/patching.h"

namespace spectra::reference {

class OverlapAccumulator {
 public:
  OverlapAccumulator(long steps, long height, long width,
                     geo::OverlapAggregation aggregation = geo::OverlapAggregation::kMean);

  // Add a generated [T, Ht, Wt] patch at `window`.
  void add_patch(const geo::PatchWindow& window, const geo::PatchSpec& spec,
                 const std::vector<float>& patch);

  // Combined estimate; every pixel must have been covered.
  geo::CityTensor finalize() const;

 private:
  geo::OverlapAggregation aggregation_;
  geo::CityTensor sum_;
  geo::GridMap count_;  // patch multiplicity is time-invariant
  // kMedian only: every contribution per (t, pixel).
  std::vector<std::vector<double>> contributions_;
};

}  // namespace spectra::reference
