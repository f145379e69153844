#include "geo/patching.h"

#include <algorithm>

#include "util/error.h"

namespace spectra::geo {

void PatchSpec::validate() const {
  SG_CHECK(traffic_h > 0 && traffic_w > 0, "traffic patch must be non-empty");
  SG_CHECK(context_h >= traffic_h && context_w >= traffic_w,
           "context patch must contain the traffic patch");
  SG_CHECK((context_h - traffic_h) % 2 == 0 && (context_w - traffic_w) % 2 == 0,
           "context halo must be symmetric (same parity extents)");
  SG_CHECK(stride > 0 && stride <= traffic_h && stride <= traffic_w,
           "stride must be in [1, traffic patch size] so windows cover every pixel");
}

std::vector<PatchWindow> enumerate_windows(long height, long width, const PatchSpec& spec) {
  spec.validate();
  SG_CHECK(height >= spec.traffic_h && width >= spec.traffic_w,
           "city smaller than one traffic patch");
  std::vector<long> rows, cols;
  for (long r = 0;; r += spec.stride) {
    const long clamped = std::min(r, height - spec.traffic_h);
    rows.push_back(clamped);
    if (clamped == height - spec.traffic_h) break;
  }
  for (long c = 0;; c += spec.stride) {
    const long clamped = std::min(c, width - spec.traffic_w);
    cols.push_back(clamped);
    if (clamped == width - spec.traffic_w) break;
  }
  std::vector<PatchWindow> windows;
  windows.reserve(rows.size() * cols.size());
  for (long r : rows) {
    for (long c : cols) windows.push_back({r, c});
  }
  return windows;
}

std::vector<float> extract_context_patch(const ContextTensor& context, const PatchWindow& window,
                                         const PatchSpec& spec) {
#ifndef NDEBUG
  spec.validate();  // callers own the spec; per-window cost is debug-only
#endif
  const long C = context.steps();
  const long H = context.height();
  const long W = context.width();
  const long r0 = window.row - spec.halo_h();
  const long c0 = window.col - spec.halo_w();
  std::vector<float> patch(static_cast<std::size_t>(C * spec.context_h * spec.context_w), 0.0f);
  for (long ch = 0; ch < C; ++ch) {
    for (long i = 0; i < spec.context_h; ++i) {
      const long row = r0 + i;
      if (row < 0 || row >= H) continue;  // zero padding outside the city
      for (long j = 0; j < spec.context_w; ++j) {
        const long col = c0 + j;
        if (col < 0 || col >= W) continue;
        patch[static_cast<std::size_t>((ch * spec.context_h + i) * spec.context_w + j)] =
            static_cast<float>(context.at(ch, row, col));
      }
    }
  }
  return patch;
}

std::vector<float> extract_traffic_patch(const CityTensor& traffic, const PatchWindow& window,
                                         const PatchSpec& spec) {
#ifndef NDEBUG
  spec.validate();  // callers own the spec; per-window cost is debug-only
#endif
  const long T = traffic.steps();
  SG_CHECK(window.row >= 0 && window.row + spec.traffic_h <= traffic.height() &&
               window.col >= 0 && window.col + spec.traffic_w <= traffic.width(),
           "traffic patch window out of bounds");
  std::vector<float> patch(static_cast<std::size_t>(T * spec.traffic_h * spec.traffic_w));
  std::size_t k = 0;
  for (long t = 0; t < T; ++t) {
    for (long i = 0; i < spec.traffic_h; ++i) {
      for (long j = 0; j < spec.traffic_w; ++j) {
        patch[k++] = static_cast<float>(traffic.at(t, window.row + i, window.col + j));
      }
    }
  }
  return patch;
}

}  // namespace spectra::geo
