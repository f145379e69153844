#include "reference/sewing_reference.h"

#include <algorithm>

#include "util/error.h"

namespace spectra::reference {

OverlapAccumulator::OverlapAccumulator(long steps, long height, long width,
                                       geo::OverlapAggregation aggregation)
    : aggregation_(aggregation), sum_(steps, height, width), count_(height, width) {
  if (aggregation_ == geo::OverlapAggregation::kMedian) {
    contributions_.resize(static_cast<std::size_t>(steps * height * width));
  }
}

void OverlapAccumulator::add_patch(const geo::PatchWindow& window, const geo::PatchSpec& spec,
                                   const std::vector<float>& patch) {
  const long T = sum_.steps();
  const long H = sum_.height();
  const long W = sum_.width();
  SG_CHECK(static_cast<long>(patch.size()) == T * spec.traffic_h * spec.traffic_w,
           "patch size does not match accumulator geometry");
  std::size_t k = 0;
  for (long t = 0; t < T; ++t) {
    for (long i = 0; i < spec.traffic_h; ++i) {
      for (long j = 0; j < spec.traffic_w; ++j) {
        const double v = static_cast<double>(patch[k++]);
        sum_.at(t, window.row + i, window.col + j) += v;
        if (aggregation_ == geo::OverlapAggregation::kMedian) {
          contributions_[static_cast<std::size_t>((t * H + window.row + i) * W + window.col + j)]
              .push_back(v);
        }
      }
    }
  }
  for (long i = 0; i < spec.traffic_h; ++i) {
    for (long j = 0; j < spec.traffic_w; ++j) count_.at(window.row + i, window.col + j) += 1.0;
  }
}

geo::CityTensor OverlapAccumulator::finalize() const {
  geo::CityTensor out = sum_;
  const long T = out.steps();
  const long H = out.height();
  const long W = out.width();
  std::vector<double> values;
  for (long i = 0; i < H; ++i) {
    for (long j = 0; j < W; ++j) {
      const double n = count_.at(i, j);
      SG_CHECK(n > 0.0, "pixel not covered by any patch");
      for (long t = 0; t < T; ++t) {
        if (aggregation_ == geo::OverlapAggregation::kMean) {
          out.at(t, i, j) /= n;
          continue;
        }
        // Upper median from one partition pass; for even counts the
        // lower median is the maximum of the left partition.
        const std::vector<double>& contribs =
            contributions_[static_cast<std::size_t>((t * H + i) * W + j)];
        values.assign(contribs.begin(), contribs.end());
        const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
        std::nth_element(values.begin(), mid, values.end());
        double median = *mid;
        if (values.size() % 2 == 0) {
          median = 0.5 * (*std::max_element(values.begin(), mid) + median);
        }
        out.at(t, i, j) = median;
      }
    }
  }
  return out;
}

}  // namespace spectra::reference
