// Exhaustive check of the gate activations (nn/activations.h): all 2^32
// float bit patterns, NaN payloads included, through act::sigmoid and
// act::tanh at the active SIMD level, against the scalar definitions.
//
//   SPECTRA_SIMD=avx512 build/tests/activation_sweep
//
// Prints the level and the mismatch count per function, plus the first
// few mismatching inputs, and exits 1 on any mismatch. Work fans out on
// the shared pool (SPECTRA_THREADS).

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "nn/activations.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace {

using spectra::nn::stable_sigmoid;

constexpr std::uint64_t kPatterns = std::uint64_t{1} << 32;
constexpr std::uint64_t kBlock = std::uint64_t{1} << 16;
constexpr std::size_t kBlocks = kPatterns / kBlock;
constexpr int kFunctions = 2;
const char* const kNames[kFunctions] = {"sigmoid", "tanh"};

struct BlockResult {
  std::uint64_t mismatches[kFunctions] = {};
  std::uint32_t first_input[kFunctions] = {};
};

BlockResult sweep_block(std::size_t block) {
  std::vector<float> x(kBlock), ref(kBlock), got(kBlock);
  for (std::uint64_t i = 0; i < kBlock; ++i) {
    x[i] = std::bit_cast<float>(static_cast<std::uint32_t>(block * kBlock + i));
  }
  BlockResult result;
  for (int f = 0; f < kFunctions; ++f) {
    if (f == 0) {
      for (std::uint64_t i = 0; i < kBlock; ++i) ref[i] = stable_sigmoid(x[i]);
      spectra::nn::act::sigmoid(x.data(), got.data(), kBlock);
    } else {
      for (std::uint64_t i = 0; i < kBlock; ++i) ref[i] = std::tanh(x[i]);
      spectra::nn::act::tanh(x.data(), got.data(), kBlock);
    }
    for (std::uint64_t i = 0; i < kBlock; ++i) {
      if (std::bit_cast<std::uint32_t>(ref[i]) != std::bit_cast<std::uint32_t>(got[i])) {
        if (result.mismatches[f]++ == 0) result.first_input[f] = std::bit_cast<std::uint32_t>(x[i]);
      }
    }
  }
  return result;
}

}  // namespace

int main() {
  const spectra::SimdLevel level = spectra::active_simd_level();
  std::vector<BlockResult> results(kBlocks);
  spectra::parallel_for(kBlocks, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) results[b] = sweep_block(b);
  });

  bool clean = true;
  for (int f = 0; f < kFunctions; ++f) {
    std::uint64_t total = 0;
    int shown = 0;
    for (const BlockResult& r : results) {
      total += r.mismatches[f];
      if (r.mismatches[f] > 0 && shown < 8) {
        ++shown;
        const float x = std::bit_cast<float>(r.first_input[f]);
        const float ref = f == 0 ? stable_sigmoid(x) : std::tanh(x);
        std::printf("  %s mismatch at input 0x%08x (%a): scalar 0x%08x\n", kNames[f],
                    r.first_input[f], static_cast<double>(x), std::bit_cast<std::uint32_t>(ref));
      }
    }
    std::printf("%s %s: %llu of %llu patterns differ from the scalar definition\n",
                spectra::simd_level_name(level), kNames[f],
                static_cast<unsigned long long>(total), static_cast<unsigned long long>(kPatterns));
    clean = clean && total == 0;
  }
  return clean ? 0 : 1;
}
