#include "util/simd.h"

#include <atomic>

#include "util/env.h"
#include "util/error.h"
#include "util/log.h"

// SG_SIMD_BUILD_AVX2 / SG_SIMD_BUILD_AVX512 come from src/CMakeLists.txt:
// 1 when the compiler accepted the ISA flag, so the per-ISA kernel TUs
// hold real kernels rather than null accessors.

namespace spectra {

namespace {

// One-time dispatch selection. -1 = not yet selected; otherwise the
// SimdLevel value. Concurrent first calls race benignly: both sides
// compute the same environment-determined level and store the same
// value, and set_simd_level (tests only) is called from a single thread.
// An atomic, not a mutex, so dispatch stays outside the lock hierarchy
// (DESIGN §6d) and can be consulted from under any layer's lock.
std::atomic<int>& active_state() {
  static std::atomic<int> g_active{-1};
  return g_active;
}

// Does the CPU this process runs on implement the level's ISA?
bool cpu_supports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kGeneric:
      return true;
    case SimdLevel::kAvx2:
      // FMA too: the level's gate activations port glibc's FMA expf,
      // which glibc itself selects only on FMA+AVX2 CPUs.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case SimdLevel::kNeon:
#if defined(__aarch64__)
      return true;  // AArch64 mandates Advanced SIMD
#else
      return false;
#endif
  }
  return false;
}

// Did this build compile kernels for the level?
bool build_has_kernels(SimdLevel level) {
  switch (level) {
    case SimdLevel::kGeneric:
      return true;
    case SimdLevel::kAvx2:
      return SG_SIMD_BUILD_AVX2 != 0;
    case SimdLevel::kAvx512:
      return SG_SIMD_BUILD_AVX512 != 0;
    case SimdLevel::kNeon:
#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
      return true;
#else
      return false;
#endif
  }
  return false;
}

SimdLevel select_level() {
  const std::string requested = env_string("SPECTRA_SIMD", "");
  if (!requested.empty()) {
    const SimdLevel level = parse_simd_level(requested);
    SG_CHECK(simd_level_available(level),
             "SPECTRA_SIMD=" + requested + " is not supported by this CPU/build");
    return level;
  }
  // Widest first; generic is always available.
  for (SimdLevel level : {SimdLevel::kAvx512, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (simd_level_available(level)) return level;
  }
  return SimdLevel::kGeneric;
}

void store(SimdLevel level) {
  active_state().store(static_cast<int>(level), std::memory_order_release);
  SG_LOG_DEBUG << "simd dispatch level: " << simd_level_name(level);
}

}  // namespace

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kGeneric:
      return "generic";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "generic";
}

SimdLevel parse_simd_level(const std::string& name) {
  if (name == "generic") return SimdLevel::kGeneric;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "avx512") return SimdLevel::kAvx512;
  if (name == "neon") return SimdLevel::kNeon;
  SG_CHECK(false, "unknown SIMD level '" + name + "' (expected generic|avx2|avx512|neon)");
  return SimdLevel::kGeneric;
}

bool simd_level_available(SimdLevel level) {
  return cpu_supports(level) && build_has_kernels(level);
}

SimdLevel active_simd_level() {
  const int cached = active_state().load(std::memory_order_acquire);
  if (cached >= 0) return static_cast<SimdLevel>(cached);
  const SimdLevel level = select_level();
  store(level);
  return level;
}

void set_simd_level(SimdLevel level) {
  SG_CHECK(simd_level_available(level),
           std::string("cannot force SIMD level '") + simd_level_name(level) +
               "': not supported by this CPU/build");
  store(level);
}

}  // namespace spectra
