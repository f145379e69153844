// Patch geometry (§2.2.1) for whole-city sewing (§2.2.4; the sewer is
// geo/strip_accumulator.h).
//
// The model never sees a whole city: it operates on traffic patches of
// Ht x Wt pixels conditioned on larger context patches of Hc x Wc pixels
// (Hc > Ht so surrounding context is visible). At generation time a
// sliding window covers the map with overlapping patches; each pixel's
// final value is the average of every patch value generated for it (Eq. 2).

#pragma once

#include <vector>

#include "geo/city_tensor.h"

namespace spectra::geo {

struct PatchSpec {
  long traffic_h = 4;   // Ht
  long traffic_w = 4;   // Wt
  long context_h = 8;   // Hc (>= traffic_h, same parity recommended)
  long context_w = 8;   // Wc
  long stride = 2;      // sliding-window stride over traffic-patch origins

  // Halo of the context patch around the traffic patch per side.
  long halo_h() const { return (context_h - traffic_h) / 2; }
  long halo_w() const { return (context_w - traffic_w) / 2; }

  void validate() const;
};

// Top-left corner of a traffic patch in city coordinates.
struct PatchWindow {
  long row = 0;
  long col = 0;
};

// All sliding windows needed to cover an H x W map with the given spec.
// Origins advance by `stride` and are clamped at the borders so the final
// window ends exactly at the map edge (every pixel covered >= once).
std::vector<PatchWindow> enumerate_windows(long height, long width, const PatchSpec& spec);

// Context patch for a window: [C, Hc, Wc] flattened row-major, zero padded
// where the halo extends outside the city. The spec is only
// debug-asserted here: callers own the spec and validate it once (all of
// them go through enumerate_windows, which does) rather than per window
// — on a megacity grid the per-window re-validation was O(windows)
// redundant checks.
std::vector<float> extract_context_patch(const ContextTensor& context, const PatchWindow& window,
                                         const PatchSpec& spec);

// Traffic patch for a window over all T steps: [T, Ht, Wt] flattened.
// Same validation contract as extract_context_patch.
std::vector<float> extract_traffic_patch(const CityTensor& traffic, const PatchWindow& window,
                                         const PatchSpec& spec);

// How overlapping patch estimates are combined per pixel (the sewing
// itself is geo::StripAccumulator). The paper uses the mean (Eq. 2) and
// flags "more sophisticated methods ... beyond the average" as future
// work; the median is implemented as that extension — it is robust to a
// single outlier patch at the cost of buffering all contributions.
enum class OverlapAggregation { kMean, kMedian };

}  // namespace spectra::geo
